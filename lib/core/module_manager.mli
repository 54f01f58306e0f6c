(** Module Manager: holds the upgrade queue and implements the live
    upgrade protocols (§III-C2).

    {b Centralized} upgrades replace instances inside the Runtime: the
    admin marks every primary queue [Update_pending]; workers observing
    the mark pause the queue and set [Update_acked]; once all primary
    queues are paused and intermediate requests drained, each affected
    instance is rebuilt from the new code with its state carried over by
    [state_update]; queues are then unmarked.

    {b Decentralized} upgrades target instances living in client address
    spaces: the manager publishes a new epoch; each client applies the
    pending upgrades (paying the code-load cost locally) at its next
    request boundary. *)

type kind = Centralized | Decentralized

type upgrade = {
  target : string;  (** implementation name to upgrade *)
  factory : Registry.factory;  (** the new code *)
  code_bytes : int;  (** size of the module binary to load *)
  kind : kind;
}

type t

val create :
  Lab_sim.Machine.t ->
  Registry.t ->
  load_code:(thread:int -> bytes:int -> unit) ->
  t
(** [load_code] models fetching the new module binary from storage and
    linking it (the dominant upgrade cost measured in Table I). *)

val submit_upgrade : t -> upgrade -> unit
(** The modify_mods API: enqueue an upgrade request. *)

val pending : t -> int
(** Queued upgrades not yet processed (centralized only). *)

val epoch : t -> int
(** Decentralized upgrade epoch; clients compare against their local
    epoch. *)

val process_centralized :
  t ->
  thread:int ->
  primary_qps:Request.t Lab_ipc.Qp.t list ->
  all_acked:(unit -> bool) ->
  intermediate_idle:(unit -> bool) ->
  unit
(** Runs the centralized protocol over any queued centralized upgrades.
    [all_acked] reports whether every marked primary queue has been
    acknowledged by its worker; [intermediate_idle] whether intermediate
    requests have drained. Must run inside a simulated process. *)

val client_pending_upgrades : t -> since_epoch:int -> upgrade list
(** Decentralized upgrades published after the client's epoch. *)

val apply_client_upgrade : t -> thread:int -> local:Labmod.t -> upgrade -> Labmod.t
(** Rebuilds a client-local instance from new code, transferring state;
    charges the load cost on the client thread. *)
