(** A YAML-subset parser for LabStack specification files and the
    Runtime configuration — implemented here because the sealed build
    environment has no yaml package.

    Supported: nested block maps and block lists (indentation based),
    inline flow lists [a, b, c], scalars (null, bool, int, float,
    single/double-quoted and plain strings), and [#] comments. Anchors,
    aliases, multi-document streams, and block scalars are not; an
    unquoted value that starts with [{] (a flow map) is a parse error,
    so it is never read as a plain string. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Map of (string * t) list

exception Parse_error of { line : int; message : string }

val parse : string -> t
(** @raise Parse_error on malformed input. An empty document is {!Null}. *)

val find : t -> string -> t option
(** Map lookup; [None] for non-maps and missing keys. *)

val get_string : t -> string option

val get_int : t -> int option

val get_float : t -> float option
(** Accepts both [Int] and [Float] nodes. *)

val get_bool : t -> bool option

val to_string : t -> string
(** Debug rendering (not round-trippable YAML). *)

val serialize : t -> string
(** Renders the value as a YAML document within the supported subset;
    [parse (serialize v)] returns a value equal to [v] (up to float
    formatting). Strings are quoted whenever they could be read back as
    another scalar or contain syntax. *)
