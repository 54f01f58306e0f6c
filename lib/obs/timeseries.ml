(* Continuous-profiling sampler: ring-buffered time series.

   A sampler holds a set of named probes; every [tick ~now] reads each
   probe once and appends (now, value) to the probe's ring buffer,
   overwriting the oldest sample when the ring is full. The sampler is
   deliberately passive — it owns no clock and schedules nothing; the
   owner drives it from a simulated-time source (the Engine's tick
   hook), so a run with sampling disabled simply never constructs one.

   Probes receive the sample instant and must only read state: a probe
   that waits, computes, or schedules would perturb the run it is
   observing. Closures may keep private state (e.g. the previous
   cumulative busy count, to report per-interval deltas).

   Export is byte-stable: series sorted by name, fixed-format floats,
   non-finite probe values clamped to 0 at record time. *)

type probe = float -> float

type series = {
  s_name : string;
  s_probe : probe;
  s_times : float array;
  s_values : float array;
  mutable s_len : int; (* samples held, <= capacity *)
  mutable s_head : int; (* next write slot *)
}

type t = {
  period : float;
  capacity : int;
  mutable series : series list; (* registration order, newest first *)
  mutable ticks : int;
}

let create ?(capacity = 4096) ~period () =
  if period <= 0.0 then invalid_arg "Timeseries.create: period must be positive";
  if capacity <= 0 then invalid_arg "Timeseries.create: capacity must be positive";
  { period; capacity; series = []; ticks = 0 }

let ticks t = t.ticks

let add_series t name probe =
  if List.exists (fun s -> s.s_name = name) t.series then
    invalid_arg (Printf.sprintf "Timeseries.add_series: %S already registered" name);
  t.series <-
    {
      s_name = name;
      s_probe = probe;
      s_times = Array.make t.capacity 0.0;
      s_values = Array.make t.capacity 0.0;
      s_len = 0;
      s_head = 0;
    }
    :: t.series

let record s ~now v =
  let v = if Float.is_finite v then v else 0.0 in
  s.s_times.(s.s_head) <- now;
  s.s_values.(s.s_head) <- v;
  s.s_head <- (s.s_head + 1) mod Array.length s.s_times;
  if s.s_len < Array.length s.s_times then s.s_len <- s.s_len + 1

let tick t ~now =
  t.ticks <- t.ticks + 1;
  List.iter (fun s -> record s ~now (s.s_probe now)) t.series

let sorted_series t =
  List.sort (fun a b -> String.compare a.s_name b.s_name) t.series

let series_names t = List.map (fun s -> s.s_name) (sorted_series t)

let fold_samples s f acc =
  (* Oldest-first: the ring's oldest sample sits at [head] once it has
     wrapped, at 0 before. *)
  let cap = Array.length s.s_times in
  let start = if s.s_len < cap then 0 else s.s_head in
  let acc = ref acc in
  for i = 0 to s.s_len - 1 do
    let j = (start + i) mod cap in
    acc := f !acc s.s_times.(j) s.s_values.(j)
  done;
  !acc

let find t name = List.find_opt (fun s -> s.s_name = name) t.series

let samples t name =
  match find t name with
  | None -> []
  | Some s -> List.rev (fold_samples s (fun acc ts v -> (ts, v) :: acc) [])

type stat = {
  st_name : string;
  st_count : int;
  st_mean : float;
  st_max : float;
  st_last : float;
}

let stat_of s =
  let count, sum, mx, last =
    fold_samples s
      (fun (n, sum, mx, _) _ v -> (n + 1, sum +. v, Float.max mx v, v))
      (0, 0.0, 0.0, 0.0)
  in
  {
    st_name = s.s_name;
    st_count = count;
    st_mean = (if count = 0 then 0.0 else sum /. float_of_int count);
    st_max = mx;
    st_last = last;
  }

let stats t = List.map stat_of (sorted_series t)

(* --- export ------------------------------------------------------- *)

let jfloat f = Printf.sprintf "%.6f" (if Float.is_finite f then f else 0.0)

(* JSON object fragment (no trailing newline): the Platform exporter
   embeds it in the combined profile artifact. *)
let to_json t =
  let b = Buffer.create 8192 in
  Buffer.add_string b
    (Printf.sprintf {|{"period_ns":%s,"ticks":%d,"series":[|} (jfloat t.period)
       t.ticks);
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\n{\"name\":\"%s\",\"samples\":[" s.s_name);
      let first = ref true in
      ignore
        (fold_samples s
           (fun () ts v ->
             if not !first then Buffer.add_char b ',';
             first := false;
             Buffer.add_string b (Printf.sprintf "[%s,%s]" (jfloat ts) (jfloat v)))
           ());
      Buffer.add_string b "]}")
    (sorted_series t);
  Buffer.add_string b "\n]}";
  Buffer.contents b

let empty_json = {|{"period_ns":0.000000,"ticks":0,"series":[]}|}
