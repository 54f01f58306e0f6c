(** LabStack Namespace: the shared-memory key-value store mapping mount
    points to LabStack DAGs, with the longest-prefix path resolution
    GenericFS uses ("fs::/b/hi.txt" resolves to the stack mounted at
    "fs::/b"). *)

type t

val create : unit -> t

val mount : t -> Registry.t -> Stack_spec.t -> (Stack.t, string) result
(** Registers a new LabStack. Fails if the mount point is taken. *)

val unmount : t -> string -> (unit, string) result

val lookup : t -> string -> Stack.t
(** Exact mount-point lookup. It returns no option, so a per-request
    lookup allocates nothing.
    @raise Not_found if nothing is mounted there. *)

val stack_by_id : t -> int -> Stack.t
(** @raise Not_found if no stack has that id. *)

val resolve : t -> string -> Stack.t option
(** Longest-prefix resolution: tries the full path, then each parent
    ("a::/x/y/z" → "a::/x/y" → "a::/x" → "a::/"). *)

val modify_stack : t -> Registry.t -> Stack_spec.t -> (Stack.t, string) result
(** Replaces the DAG of the stack mounted at the spec's mount point;
    vertices with persisting UUIDs keep their state. *)

val mounts : t -> string list

val stacks : t -> Stack.t list
