(** LabStack specification files.

    A LabStack is defined in a YAML document with three attributes: a
    mount point, a set of governing rules (execution mode, priority,
    authorized admins), and a DAG of LabMods — each vertex naming its
    implementation, instance UUID, initialization attributes, and
    outputs. Example:

    {v
    mount: "fs::/b"
    rules:
      exec_mode: async
      priority: 1
      admins: [root]
    dag:
      - uuid: labfs-1
        mod: labfs
        outputs: [lru-1]
      - uuid: lru-1
        mod: lru_cache
        attrs:
          capacity_mb: 64
        outputs: [noop-1]
      - uuid: noop-1
        mod: noop_sched
        outputs: [kdriver-1]
      - uuid: kdriver-1
        mod: kernel_driver
    v} *)

type exec_mode =
  | Sync  (** the DAG runs inside the client thread *)
  | Async  (** requests are shipped to Runtime workers *)

type vertex = {
  uuid : string;
  mod_name : string;
  attrs : (string * Yamlite.t) list;
  outputs : string list;
}

type rules = { exec_mode : exec_mode; priority : int; admins : string list }

type t = { mount : string; rules : rules; dag : vertex list }

val default_rules : rules

val parse : string -> (t, string) result
(** Parse + structural extraction; does not validate the DAG. The top
    level, [rules:] and each vertex are {!Keys} tables, so an unknown
    key, a key given twice or a value of the wrong type or shape is an
    error naming the key (and the vertex's index). [mount] and each
    vertex's [uuid] and [mod] are required; a missing [dag] is an
    empty one, which {!validate} refuses. *)

val validate :
  ?max_length:int ->
  t ->
  probe:
    (mod_name:string ->
    attrs:(string * Yamlite.t) list ->
    (Labmod.mod_type, string) result) ->
  (unit, string) result
(** Checks: non-empty DAG no longer than [max_length] (default 16),
    unique UUIDs, outputs referencing known vertices, acyclicity, every
    vertex accepted by [probe] (its implementation installed and its
    attributes valid; {!Registry.probe} is the platform's), and
    interface compatibility along each edge
    ({!Labmod.compatible_downstream}). A probe error is returned
    prefixed with the vertex's UUID. The first vertex is the stack's
    entry point. *)

val entry : t -> vertex
(** First vertex of the DAG. Raises [Invalid_argument] on empty DAG. *)

val find_vertex : t -> string -> vertex option
