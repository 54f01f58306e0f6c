(* Compression LabMod: transparently compresses write payloads before
   they continue towards storage (active storage, §III-B). Simulated
   payloads carry sizes rather than bytes, so the module charges CPU
   time from a calibrated per-byte rate (ZLIB-class ≈ 0.625 ns/B: a
   32 MiB buffer costs the ~20 ms the paper reports) and shrinks the
   downstream request by the configured ratio. The real algorithm
   (Lz77) backs the model and the unit tests. *)

open Lab_sim
open Lab_core

(* CPU cost per payload byte: ZLIB-class compression, and the faster
   inflate on the read path. *)
let compress_ns_per_byte = 0.625

let decompress_ns_per_byte = 0.2

type comp_state = {
  ratio : float;
  mutable bytes_in : int;
  mutable bytes_out : int;
}

type Labmod.state += State of comp_state

let name = "compress"

let bytes_saved m =
  match m.Labmod.state with State s -> s.bytes_in - s.bytes_out | _ -> 0

let operate m ctx req =
  match (m.Labmod.state, req.Request.payload) with
  | State s, Request.Block { b_kind = Request.Write; b_lba; b_bytes; _ } ->
      let machine = ctx.Labmod.machine in
      Machine.compute machine ~thread:ctx.Labmod.thread
        (compress_ns_per_byte *. Stdlib.float_of_int b_bytes);
      let out = Stdlib.max 1 (int_of_float (Stdlib.float_of_int b_bytes *. s.ratio)) in
      s.bytes_in <- s.bytes_in + b_bytes;
      s.bytes_out <- s.bytes_out + out;
      let compressed =
        {
          req with
          Request.payload =
            Request.Block { b_kind = Request.Write; b_lba; b_bytes = out; b_sync = false };
        }
      in
      ctx.Labmod.forward compressed
  | State s, Request.Block { b_kind = Request.Read; b_lba; b_bytes; _ } ->
      let machine = ctx.Labmod.machine in
      let stored = Stdlib.max 1 (int_of_float (Stdlib.float_of_int b_bytes *. s.ratio)) in
      let fetch =
        {
          req with
          Request.payload =
            Request.Block { b_kind = Request.Read; b_lba; b_bytes = stored; b_sync = false };
        }
      in
      let result = ctx.Labmod.forward fetch in
      Machine.compute machine ~thread:ctx.Labmod.thread
        (decompress_ns_per_byte *. Stdlib.float_of_int b_bytes);
      result
  | _, (Request.Posix _ | Request.Kv _ | Request.Control _) ->
      ctx.Labmod.forward req
  | _ -> Request.Failed "compress: bad state"

let est m req =
  match m.Labmod.state with
  | State _ -> compress_ns_per_byte *. Stdlib.float_of_int (Request.bytes_of req)
  | _ -> 1000.0

let attr_table = [ Keys.float "ratio" (fun _ r -> r) ]

let factory : Registry.factory =
 fun ~uuid ~attrs ->
  Labmod.make ~name ~uuid ~mod_type:Labmod.Compression
    ~state:
      (State
         {
           ratio = Keys.decode attr_table 0.5 attrs;
           bytes_in = 0;
           bytes_out = 0;
         })
    {
      Labmod.operate;
      est_processing_time = est;
      state_update = Mod_util.identity_state;
      state_repair = Mod_util.no_repair;
    }
