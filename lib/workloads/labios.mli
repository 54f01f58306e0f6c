(** LABIOS distributed object-store worker model (§IV-C).

    LABIOS stores "labels" — its data representation. A worker persists
    labels through a backend: the classical path translates each label
    to a UNIX file and pays an open/seek/write/close sequence; LabKVS
    persists a label with a single put. *)

type backend = {
  name : string;
  put_label : thread:int -> key:string -> bytes:int -> unit;
}

val file_backend :
  name:string ->
  open_:(thread:int -> string -> unit) ->
  seek:(thread:int -> string -> int -> unit) ->
  write:(thread:int -> string -> off:int -> bytes:int -> unit) ->
  close:(thread:int -> string -> unit) ->
  backend
(** Wraps POSIX-style callbacks into the label interface, issuing the
    4-call sequence per label the paper describes. *)

type result = {
  labels : int;
  elapsed_ns : float;
  labels_per_sec : float;
  mib_per_sec : float;
}

val run_worker :
  Lab_sim.Machine.t ->
  backend ->
  ?nthreads:int ->
  ?labels_per_thread:int ->
  unit ->
  result
(** Each thread writes [labels_per_thread] labels of 8 KiB. Defaults:
    1 thread, 2000 labels — the paper's LABIOS experiment
    configuration. *)
