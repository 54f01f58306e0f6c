(** An instantiated LabStack: a validated spec whose vertices are bound
    to live LabMod instances in the Module Registry. *)

type t = {
  id : int;
  mount : string;
  spec : Stack_spec.t;
  exec_mode : Stack_spec.exec_mode;
}

val instantiate :
  Registry.t -> Stack_spec.t -> id:int -> (t, string) result
(** Validates the spec against installed implementations and ensures
    every vertex has a registry instance (creating missing ones). *)

val entry_uuid : t -> string

val next_uuids : t -> string -> string list
(** Downstream vertices of the given UUID (within this stack). *)

val mods : t -> Registry.t -> Labmod.t list
(** The stack's instances in DAG order. *)

val update_spec : t -> Registry.t -> Stack_spec.t -> (t, string) result
(** modify_stack: re-validates and re-instantiates with the new DAG,
    keeping id and mount. Vertices whose UUIDs persist keep their
    instances (and therefore their state). *)
