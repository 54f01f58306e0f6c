(** LabMod repositories (deployment model, §III-D).

    A repo is a named collection of installed LabMod implementations
    owned by a user. [mount_repo]/[unmount_repo] are unprivileged; a
    configurable per-user repo quota applies. A repo owned by the same
    user as the Runtime is trusted by default; LabMods from untrusted
    repos may still be used — but only in stacks that execute in the
    client's address space (synchronous execution), never inside the
    Runtime. *)

type trust = Trusted | Untrusted

type t

val create : runtime_uid:int -> ?max_repos_per_user:int -> unit -> t
(** Default quota: 8 repos per user. *)

val mount_repo :
  t ->
  Registry.t ->
  name:string ->
  owner_uid:int ->
  mods:(string * Registry.factory) list ->
  (trust, string) result
(** Registers every implementation in the repo (rejecting name
    collisions with already-installed implementations) and returns the
    trust level assigned. *)

val unmount_repo : t -> Registry.t -> name:string -> (unit, string) result
(** Unregisters the repo's implementations. *)

val trust_of_mod : t -> string -> trust
(** Trust of the repo providing implementation [name]; implementations
    not provided by any repo (the built-ins the Runtime was configured
    with) are trusted. *)

val validate_stack_trust : t -> Stack_spec.t -> (unit, string) result
(** Rejects asynchronous stacks that contain untrusted LabMods: those
    must run in a separate address space from the Runtime. *)
