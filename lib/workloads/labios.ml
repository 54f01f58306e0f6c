open Lab_sim

type backend = {
  name : string;
  put_label : thread:int -> key:string -> bytes:int -> unit;
}

let file_backend ~name ~open_ ~seek ~write ~close =
  {
    name;
    put_label =
      (fun ~thread ~key ~bytes ->
        (* fopen, fseek, fwrite, fclose — the translation LABIOS pays
           when labels become UNIX files. *)
        open_ ~thread key;
        seek ~thread key 0;
        write ~thread key ~off:0 ~bytes;
        close ~thread key);
  }

type result = {
  labels : int;
  elapsed_ns : float;
  labels_per_sec : float;
  mib_per_sec : float;
}

let label_bytes = 8192

let run_worker machine backend ?(nthreads = 1) ?(labels_per_thread = 2000) () =
  let t0 = Machine.now machine in
  let finished = ref 0 in
  Engine.suspend (fun resume ->
      for th = 0 to nthreads - 1 do
        Engine.spawn machine.Machine.engine (fun () ->
            for i = 1 to labels_per_thread do
              let key = Printf.sprintf "labios::/labels/t%d-l%d" th i in
              backend.put_label ~thread:th ~key ~bytes:label_bytes
            done;
            incr finished;
            if !finished = nthreads then resume ())
      done);
  let elapsed = Machine.now machine -. t0 in
  let labels = nthreads * labels_per_thread in
  {
    labels;
    elapsed_ns = elapsed;
    labels_per_sec =
      (if elapsed > 0.0 then Stdlib.float_of_int labels /. (elapsed /. 1e9) else 0.0);
    mib_per_sec =
      (if elapsed > 0.0 then
         Stdlib.float_of_int (labels * label_bytes)
         /. (elapsed /. 1e9) /. (1024.0 *. 1024.0)
       else 0.0);
  }
