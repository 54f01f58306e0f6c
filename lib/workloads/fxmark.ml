open Lab_sim

type fs_ops = {
  create : thread:int -> string -> unit;
  unlink : thread:int -> string -> unit;
  rename : thread:int -> src:string -> dst:string -> unit;
}

type result = { ops : int; elapsed_ns : float; ops_per_sec : float }

let finish machine ~ops ~t0 =
  let elapsed = Machine.now machine -. t0 in
  {
    ops;
    elapsed_ns = elapsed;
    ops_per_sec =
      (if elapsed > 0.0 then Stdlib.float_of_int ops /. (elapsed /. 1e9) else 0.0);
  }

let parallel machine nthreads body =
  let all_done = Engine.join nthreads in
  for th = 0 to nthreads - 1 do
    Engine.spawn machine.Machine.engine (fun () ->
        body th;
        Engine.arrive all_done)
  done;
  Engine.await all_done

let run_create machine ~nthreads ~files_per_thread ~shared_dir ops =
  if nthreads <= 0 || files_per_thread <= 0 then invalid_arg "Fxmark.run_create";
  let t0 = Machine.now machine in
  parallel machine nthreads (fun th ->
      for i = 1 to files_per_thread do
        let path =
          if shared_dir then Printf.sprintf "/shared/t%d-f%d" th i
          else Printf.sprintf "/private-%d/f%d" th i
        in
        ops.create ~thread:th path
      done);
  finish machine ~ops:(nthreads * files_per_thread) ~t0

let run_mixed machine ~nthreads ~ops_per_thread ops =
  if nthreads <= 0 || ops_per_thread <= 0 then invalid_arg "Fxmark.run_mixed";
  let t0 = Machine.now machine in
  parallel machine nthreads (fun th ->
      let created = ref [] in
      let counter = ref 0 in
      for i = 1 to ops_per_thread do
        let roll = i mod 5 in
        if roll < 3 || !created = [] then begin
          incr counter;
          let path = Printf.sprintf "/shared/t%d-m%d" th !counter in
          ops.create ~thread:th path;
          created := path :: !created
        end
        else if roll = 3 then begin
          match !created with
          | p :: rest ->
              let dst = p ^ ".r" in
              ops.rename ~thread:th ~src:p ~dst;
              created := dst :: rest
          | [] -> ()
        end
        else
          match !created with
          | p :: rest ->
              ops.unlink ~thread:th p;
              created := rest
          | [] -> ()
      done);
  finish machine ~ops:(nthreads * ops_per_thread) ~t0
