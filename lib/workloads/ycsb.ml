open Lab_sim

type mix = A | B | C | D

let mix_name = function A -> "A" | B -> "B" | C -> "C" | D -> "D"

let all = [ A; B; C; D ]

type kv_ops = {
  put : thread:int -> key:string -> bytes:int -> unit;
  get : thread:int -> key:string -> unit;
}

type result = {
  ops : int;
  elapsed_ns : float;
  ops_per_sec : float;
  read_latency : Lab_obs.Hist.t;
  update_latency : Lab_obs.Hist.t;
}

let read_fraction = function A -> 0.5 | B -> 0.95 | C -> 1.0 | D -> 0.95

let key_name i = Printf.sprintf "user%08d" i

let value_bytes = 1024

let run machine mix ?(nthreads = 4) ?(records = 500) ?(ops_per_thread = 500)
    ?(theta = 0.99) ops =
  if nthreads <= 0 || records <= 0 || ops_per_thread <= 0 then
    invalid_arg "Ycsb.run";
  (* Load phase, untimed. *)
  let loaded = Engine.join 1 in
  Engine.spawn machine.Machine.engine (fun () ->
      for i = 0 to records - 1 do
        ops.put ~thread:0 ~key:(key_name i) ~bytes:value_bytes
      done;
      Engine.arrive loaded);
  Engine.await loaded;
  let read_latency = Lab_obs.Hist.create ()
  and update_latency = Lab_obs.Hist.create () in
  let inserted = ref records in
  let t0 = Machine.now machine in
  let all_done = Engine.join nthreads in
  for th = 0 to nthreads - 1 do
    Engine.spawn machine.Machine.engine (fun () ->
        let rng = Rng.create (0xCC5B + th) in
        for _ = 1 to ops_per_thread do
          let start = Machine.now machine in
          let is_read = Rng.float rng 1.0 < read_fraction mix in
          (match (mix, is_read) with
          | D, false ->
              (* read-latest: the write side inserts fresh keys. *)
              let k = !inserted in
              incr inserted;
              ops.put ~thread:th ~key:(key_name k) ~bytes:value_bytes
          | D, true ->
              (* reads skew towards the most recent records. *)
              let back = Rng.zipf rng ~n:(Stdlib.min 100 !inserted) ~theta in
              ops.get ~thread:th ~key:(key_name (!inserted - 1 - back))
          | _, true ->
              ops.get ~thread:th ~key:(key_name (Rng.zipf rng ~n:records ~theta))
          | _, false ->
              ops.put ~thread:th
                ~key:(key_name (Rng.zipf rng ~n:records ~theta))
                ~bytes:value_bytes);
          Lab_obs.Hist.observe
            (if is_read then read_latency else update_latency)
            (Machine.now machine -. start)
        done;
        Engine.arrive all_done)
  done;
  Engine.await all_done;
  let elapsed = Machine.now machine -. t0 in
  let total = nthreads * ops_per_thread in
  {
    ops = total;
    elapsed_ns = elapsed;
    ops_per_sec =
      (if elapsed > 0.0 then float_of_int total /. (elapsed /. 1e9) else 0.0);
    read_latency;
    update_latency;
  }
