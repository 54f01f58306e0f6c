(** Logical volume manager LabMod.

    Maps logical extents onto physical extents across multiple backing
    devices: RAID0 stripes extents round-robin across the legs for
    bandwidth, RAID1 places every extent on every leg for availability.
    Metadata is crash-consistent via a redo log ({!Meta}): every
    mutation is journaled as an absolute (hence idempotently
    replayable) op and persisted to a reserved metadata area on each
    live leg before the data moves.

    On device loss ({!Lab_device.Device.add_health_watcher}), I/O
    transparently degrades to the surviving legs — counted by the
    [mod.<uuid>.degraded_reads] / [degraded_writes] instruments — and
    when the leg returns a background process resilvers every allocated
    extent at a capped copy rate, tracked by the
    [mod.<uuid>.rebuild_frac] gauge.

    Stack attrs: [raid] (0 | 1, default 1) and [legs] (a non-empty
    list of distinct backend names, default all). An extent is 2048 sectors
    (1 MiB), each leg reserves 4096 journal sectors at its head, and a
    rebuild checkpoints every 64 extents. The rebuild rate cap is the
    runtime's [lvm_rebuild_rate_mbps]. *)

open Lab_core

(** Pure volume-group metadata: the redo-log op algebra and its
    idempotent interpreter, separated from the runtime so the
    crash-consistency properties are checkable without a simulator
    (see test/test_lvm.ml). *)
module Meta : sig
  type leg_state = Healthy | Dead | Rebuilding

  type op =
    | Alloc of { lidx : int; placements : (int * int) list }
        (** logical extent [lidx] lives at each [(leg, pidx)];
            re-logging with a grown placement set (rebuild) overwrites *)
    | Free of { lidx : int }
    | Leg_state of { leg : int; state : leg_state }
    | Rebuild_ckpt of { leg : int; copied : int }

  val op_to_string : op -> string

  module IMap : Map.S with type key = int

  type vg = {
    nlegs : int;
    extents_per_leg : int;
    lmap : (int * int) list IMap.t;  (** logical extent -> placements *)
    states : leg_state IMap.t;  (** absent means Healthy *)
    ckpts : int IMap.t;
  }

  val create : nlegs:int -> extents_per_leg:int -> vg

  val apply : vg -> op -> vg
  (** Idempotent: ops are absolute assignments, never deltas, so
      applying an op twice equals applying it once. *)

  val replay : nlegs:int -> extents_per_leg:int -> op list -> vg
  (** Folds {!apply} over an empty volume group — recovery, and the
      journal-prefix property's subject. *)

  val leg_state : vg -> int -> leg_state

  val allocated : vg -> (int * (int * int) list) list

  val equal : vg -> vg -> bool

  val consistent : vg -> bool
  (** Placements in bounds, at most one placement per leg per logical
      extent, and no physical extent double-booked. *)
end

val factory :
  ?env:Mod_util.env ->
  machine:Lab_sim.Machine.t ->
  legs:(string * Lab_kernel.Blk.t * Lab_device.Device.t) list ->
  rebuild_rate_mbps:float ->
  unit ->
  Registry.factory
(** [legs] are the candidate backing devices by backend name; a stack's
    [legs] attr selects a subset. [rebuild_rate_mbps] is every
    instance's resilver rate cap (the [lvm_rebuild_rate_mbps] runtime
    knob).
    Instances register [mod.<uuid>.*] counters plus the [rebuild_frac]
    and [live_legs] gauges in [env]'s registry, and attach a health
    watcher to each leg's device (probe instantiations attach
    nothing). *)

(** {2 Introspection} (for tests, benches and the CLI) *)

val journal_ops : Labmod.t -> Meta.op list
(** The redo journal, oldest first. *)

val vg : Labmod.t -> Meta.vg

val rebuild_frac : Labmod.t -> float
(** Resilvered fraction of the extents the current (or last) rebuild
    covers; 1.0 when no rebuild is pending. *)

val leg_states : Labmod.t -> (string * string) list

val counters : Labmod.t -> (string * int) list

val free : Labmod.t -> thread:int -> lba:int -> bytes:int -> unit
(** Frees the logical extents covering the range (journaled); must run
    in a simulated process. *)
