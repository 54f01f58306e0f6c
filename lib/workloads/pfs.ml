open Lab_sim

type md_ops = {
  md_create : thread:int -> string -> unit;
  md_extend : thread:int -> string -> unit;
  md_lookup : thread:int -> string -> unit;
}

type data_ops = {
  srv_write : server:int -> off:int -> bytes:int -> unit;
  srv_read : server:int -> off:int -> bytes:int -> unit;
}

type config = {
  stripe_bytes : int;
  nservers : int;
  net_latency_ns : float;
  net_bw_bytes_per_ns : float;
  stripes_per_md_op : int;
}

let default_config =
  {
    stripe_bytes = 65536;
    nservers = 4;
    net_latency_ns = 12_000.0;
    net_bw_bytes_per_ns = 1.25;  (* 10 GbE per server link *)
    stripes_per_md_op = 1;
  }

type t = {
  machine : Machine.t;
  cfg : config;
  md : md_ops;
  data : data_ops;
  links : Semaphore.t array;
  md_link : Semaphore.t;
  mutable md_op_count : int;
}

let create machine ?(config = default_config) md data =
  {
    machine;
    cfg = config;
    md;
    data;
    links = Array.init config.nservers (fun _ -> Semaphore.create 1);
    md_link = Semaphore.create 1;
    md_op_count = 0;
  }

(* One round trip to the metadata server. *)
let md_rpc t ~thread op path =
  Engine.wait t.cfg.net_latency_ns;
  Semaphore.acquire t.md_link;
  (match op with
  | `Create -> t.md.md_create ~thread path
  | `Extend -> t.md.md_extend ~thread path
  | `Lookup -> t.md.md_lookup ~thread path);
  Semaphore.release t.md_link;
  Engine.wait t.cfg.net_latency_ns;
  t.md_op_count <- t.md_op_count + 1

let transfer t ~server bytes =
  Engine.wait t.cfg.net_latency_ns;
  Semaphore.acquire t.links.(server);
  Engine.wait (Stdlib.float_of_int bytes /. t.cfg.net_bw_bytes_per_ns);
  Semaphore.release t.links.(server)

let stripes_of t bytes = (bytes + t.cfg.stripe_bytes - 1) / t.cfg.stripe_bytes

let write_file t ~thread ~path ~bytes =
  md_rpc t ~thread `Create path;
  let stripes = stripes_of t bytes in
  for si = 0 to stripes - 1 do
    if si mod t.cfg.stripes_per_md_op = 0 then md_rpc t ~thread `Extend path;
    let server = si mod t.cfg.nservers in
    let chunk =
      Stdlib.min t.cfg.stripe_bytes (bytes - (si * t.cfg.stripe_bytes))
    in
    transfer t ~server chunk;
    t.data.srv_write ~server ~off:(si * t.cfg.stripe_bytes) ~bytes:chunk
  done

let read_file t ~thread ~path ~bytes =
  md_rpc t ~thread `Lookup path;
  let stripes = stripes_of t bytes in
  for si = 0 to stripes - 1 do
    if si mod t.cfg.stripes_per_md_op = 0 then md_rpc t ~thread `Lookup path;
    let server = si mod t.cfg.nservers in
    let chunk =
      Stdlib.min t.cfg.stripe_bytes (bytes - (si * t.cfg.stripe_bytes))
    in
    t.data.srv_read ~server ~off:(si * t.cfg.stripe_bytes) ~bytes:chunk;
    transfer t ~server chunk
  done

type result = {
  elapsed_ns : float;
  total_bytes : int;
  bandwidth_mib_s : float;
  md_ops : int;
}

let run_procs t ~procs body =
  let finished = ref 0 in
  Engine.suspend (fun resume ->
      for p = 0 to procs - 1 do
        Engine.spawn t.machine.Machine.engine (fun () ->
            body p;
            incr finished;
            if !finished = procs then resume ())
      done)

let vpic t ~procs ~steps ~bytes_per_proc_step =
  let t0 = Machine.now t.machine in
  let md0 = t.md_op_count in
  run_procs t ~procs (fun p ->
      for step = 1 to steps do
        write_file t ~thread:p
          ~path:(Printf.sprintf "pfs::/vpic/step%d/proc%d" step p)
          ~bytes:bytes_per_proc_step
      done);
  let elapsed = Machine.now t.machine -. t0 in
  let total = procs * steps * bytes_per_proc_step in
  {
    elapsed_ns = elapsed;
    total_bytes = total;
    bandwidth_mib_s =
      (if elapsed > 0.0 then
         Stdlib.float_of_int total /. (elapsed /. 1e9) /. (1024.0 *. 1024.0)
       else 0.0);
    md_ops = t.md_op_count - md0;
  }

let bdcats t ~procs ~steps ~bytes_per_proc_step =
  let t0 = Machine.now t.machine in
  let md0 = t.md_op_count in
  run_procs t ~procs (fun p ->
      for step = 1 to steps do
        read_file t ~thread:p
          ~path:(Printf.sprintf "pfs::/vpic/step%d/proc%d" step p)
          ~bytes:bytes_per_proc_step
      done);
  let elapsed = Machine.now t.machine -. t0 in
  let total = procs * steps * bytes_per_proc_step in
  {
    elapsed_ns = elapsed;
    total_bytes = total;
    bandwidth_mib_s =
      (if elapsed > 0.0 then
         Stdlib.float_of_int total /. (elapsed /. 1e9) /. (1024.0 *. 1024.0)
       else 0.0);
    md_ops = t.md_op_count - md0;
  }
