open Lab_sim
open Lab_core

type pattern = Randwrite | Randread | Seqwrite | Seqread

type job = {
  name : string;
  pattern : pattern;
  block_bytes : int;
  total_bytes_per_thread : int;
  iodepth : int;
  nthreads : int;
  runtime_ns : float option;
  region_bytes : int;
}

let default_job =
  {
    name = "job";
    pattern = Randwrite;
    block_bytes = 4096;
    total_bytes_per_thread = 16 * 1024 * 1024;
    iodepth = 1;
    nthreads = 1;
    runtime_ns = None;
    region_bytes = 1 lsl 30;
  }

type io_target = {
  submit : thread:int -> kind:Request.io_kind -> off:int -> bytes:int -> unit;
  submit_batch :
    thread:int -> kind:Request.io_kind -> offs:int array -> bytes:int -> unit;
}

let target_of_submit submit =
  {
    submit;
    submit_batch =
      (fun ~thread ~kind ~offs ~bytes ->
        Array.iter (fun off -> submit ~thread ~kind ~off ~bytes) offs);
  }

type result = {
  ops : int;
  elapsed_ns : float;
  iops : float;
  bandwidth_mib_s : float;
  latency : Lab_obs.Hist.t;
}

let kind_of = function
  | Randwrite | Seqwrite -> Request.Write
  | Randread | Seqread -> Request.Read

let run machine job target =
  if job.nthreads <= 0 || job.iodepth <= 0 || job.block_bytes <= 0 then
    invalid_arg "Fio.run: bad job";
  let latency = Lab_obs.Hist.create () in
  let total_ops = ref 0 in
  let kind = kind_of job.pattern in
  let t0 = Machine.now machine in
  let deadline = Option.map (fun d -> t0 +. d) job.runtime_ns in
  let all_done = Engine.join job.nthreads in
  for th = 0 to job.nthreads - 1 do
    Engine.spawn machine.Machine.engine (fun () ->
        let rng = Rng.create (0x5EED + th) in
        let region_blocks =
          Stdlib.max 1 (job.region_bytes / job.block_bytes)
        in
        let next_seq = ref 0 in
        let next_off () =
          match job.pattern with
          | Randwrite | Randread ->
              (Rng.int rng region_blocks * job.block_bytes)
              + (th * job.region_bytes)
          | Seqwrite | Seqread ->
              let off =
                (!next_seq mod region_blocks * job.block_bytes)
                + (th * job.region_bytes)
              in
              incr next_seq;
              off
        in
        let ops_budget =
          if deadline = None then
            Stdlib.max 1 (job.total_bytes_per_thread / job.block_bytes)
          else max_int
        in
        let issued = ref 0 in
        let expired () =
          match deadline with
          | Some d -> Machine.now machine >= d
          | None -> false
        in
        while !issued < ops_budget && not (expired ()) do
          if job.iodepth = 1 then begin
            let start = Machine.now machine in
            target.submit ~thread:th ~kind ~off:(next_off ())
              ~bytes:job.block_bytes;
            Lab_obs.Hist.observe latency (Machine.now machine -. start);
            incr issued;
            incr total_ops
          end
          else begin
            let n = Stdlib.min job.iodepth (ops_budget - !issued) in
            let offs = Array.init n (fun _ -> next_off ()) in
            let start = Machine.now machine in
            target.submit_batch ~thread:th ~kind ~offs ~bytes:job.block_bytes;
            let per_slot = (Machine.now machine -. start) /. Stdlib.float_of_int n in
            for _ = 1 to n do
              Lab_obs.Hist.observe latency per_slot
            done;
            issued := !issued + n;
            total_ops := !total_ops + n
          end
        done;
        Engine.arrive all_done)
  done;
  Engine.await all_done;
  let elapsed = Machine.now machine -. t0 in
  let ops = !total_ops in
  {
    ops;
    elapsed_ns = elapsed;
    iops = (if elapsed > 0.0 then Stdlib.float_of_int ops /. (elapsed /. 1e9) else 0.0);
    bandwidth_mib_s =
      (if elapsed > 0.0 then
         Stdlib.float_of_int ops
         *. Stdlib.float_of_int job.block_bytes
         /. (elapsed /. 1e9) /. (1024.0 *. 1024.0)
       else 0.0);
    latency;
  }
