(** The one JSON string writer of the obs exports. *)

val quote : string -> string
(** [s] as a JSON string literal: quoted, with quotes, backslashes and
    control characters escaped. *)
