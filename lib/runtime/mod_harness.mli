(** LabMod debugging harness.

    The paper's debugging mode: run a single LabMod in isolation, with a
    scripted downstream, outside any Runtime — probe its outputs, count
    and capture what it forwards, and measure the virtual time it
    charges. (In the original system this is where GDB/Valgrind attach;
    here the whole run is deterministic and inspectable.) *)

type t

val create :
  ?ncores:int ->
  ?downstream:(Lab_core.Request.t -> Lab_core.Request.result) ->
  (Lab_sim.Machine.t -> Lab_core.Registry.factory) ->
  t
(** Instantiates the module under test (uuid ["under-test"]). The
    factory builder receives the harness's machine so modules that
    close over devices (drivers) can construct them. [downstream]
    scripts the next DAG stage; the default completes everything with
    [Done]. *)

val run :
  t -> ?thread:int -> Lab_core.Request.payload -> Lab_core.Request.result * float
(** Drives one request through the module in a fresh simulated process
    and returns (result, virtual ns consumed). *)

val forwarded : t -> Lab_core.Request.t list
(** Everything the module sent downstream, oldest first (both
    synchronous forwards and asynchronous emissions). *)

val clear_forwarded : t -> unit
