(** Key tables: the one decoder for every YAML map of settings — the
    Runtime configuration ({!Lab_runtime.Run_config}), a stack spec
    ({!Stack_spec}) and each LabMod's vertex [attrs:].

    A table lists the keys a map may hold, each with a typed setter
    that folds its value into the settings being built, so a key is
    accepted exactly when it is decoded. *)

type 'a t
(** One key: its name and its setter into the settings ['a]. *)

val int : string -> ('a -> int -> 'a) -> 'a t

val float : string -> ('a -> float -> 'a) -> 'a t
(** Accepts ints too. *)

val bool : string -> ('a -> bool -> 'a) -> 'a t

val string : string -> ('a -> string -> 'a) -> 'a t

val strings : string -> ('a -> string list -> 'a) -> 'a t
(** A list of strings; an empty value is the empty list. *)

val path : string -> ('a -> string option -> 'a) -> 'a t
(** An output file: an empty value or [""] is [None], "no file". *)

val custom : string -> ('a -> Yamlite.t -> 'a) -> 'a t
(** The setter reads the value itself. *)

val reject : string -> 'a
(** For a setter given a value it cannot use: [reject "0 or 1"] refuses
    the key with ["expected 0 or 1, got 2"]. *)

val invalid : string -> 'a
(** Refuses the key with the problem as given. *)

val nested : 'a t list -> 'a -> Yamlite.t -> 'a
(** For a custom key whose value is itself a map of keys: decodes it
    over the given settings (an empty value keeps them). A value that
    is not a map is rejected, and a refusal inside becomes this key's
    problem, rendered by {!message}. *)

type error =
  | Unknown of { key : string; known : string list }
      (** a key the table does not have; [known] is the table's keys *)
  | Duplicate of string  (** a key the map gives twice *)
  | Bad of { key : string; problem : string }
      (** a value of the wrong type or one its setter refused:
          ["expected an int, got eight"] *)

exception Refused of error

val decode : 'a t list -> 'a -> (string * Yamlite.t) list -> 'a
(** [decode table init kvs] first checks every key of [kvs], in map
    order, against [table], then folds the values into [init] in
    {e table} order, so a setter may read what an earlier key set.
    Error text is built only on a refusal.
    @raise Refused on the first unknown or duplicate key, or else the
    first value refused. *)

val message : error -> string
(** ["unknown key \"colour\""], ["duplicate key \"workers\""] or
    ["workers: expected an int, got eight"]. *)
