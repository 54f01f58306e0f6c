(* Unified metrics registry.

   A registry is a flat tree of named instruments; dotted names give the
   hierarchy ("ipc.qp3.doorbell_rings", "device.nvme.bytes_read").
   Three instrument kinds:

   - counters   : monotonically increasing ints, owned by the producer.
   - gauges     : read-through callbacks sampled at export time, for
                  values some other struct already maintains.
   - histograms : {!Hist} distributions (log2 majors x 32 linear
                  sub-buckets, exact min/max) with p50/p99/p999.

   Instruments are plain mutable records; a counter or histogram handle
   works even when it is not attached to any registry ("detached"), so
   library code can keep one code path whether or not observability is
   wired up.  Nothing in here touches simulated time: recording is a
   few machine operations, and exporting only reads. *)

type counter = { mutable c : int }

type histogram = Hist.t

type instrument =
  | Counter of counter
  | Gauge of (unit -> float)
  | Histogram of histogram

type t = { tbl : (string, instrument) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let intern t name make get =
  match Hashtbl.find_opt t.tbl name with
  | Some inst -> (
      match get inst with
      | Some v -> v
      | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %S already registered as a %s" name
               (kind_name inst)))
  | None ->
      let v, inst = make () in
      Hashtbl.replace t.tbl name inst;
      v

(* --- counters ----------------------------------------------------- *)

let counter ?reg name =
  match reg with
  | None -> { c = 0 }
  | Some t ->
      intern t name
        (fun () ->
          let c = { c = 0 } in
          (c, Counter c))
        (function Counter c -> Some c | _ -> None)

let incr ?(by = 1) c = c.c <- c.c + by
let value c = c.c
let set_value c v = c.c <- v
let reset c = c.c <- 0

(* --- gauges ------------------------------------------------------- *)

let gauge_fn t name f = Hashtbl.replace t.tbl name (Gauge f)

(* --- histograms --------------------------------------------------- *)

let histogram ?reg name =
  match reg with
  | None -> Hist.create ()
  | Some t ->
      intern t name
        (fun () ->
          let h = Hist.create () in
          (h, Histogram h))
        (function Histogram h -> Some h | _ -> None)

(* --- export ------------------------------------------------------- *)

type hist_snapshot = {
  hs_count : int;
  hs_sum : float;
  hs_min : float; (* exact, not bucket-quantized; 0 when empty *)
  hs_max : float;
  hs_p50 : float;
  hs_p99 : float;
  hs_p999 : float;
  hs_buckets : (float * int) list; (* (upper bound, count), non-empty only *)
}

type value =
  | V_counter of int
  | V_gauge of float
  | V_histogram of hist_snapshot

let snapshot_hist h =
  {
    hs_count = Hist.count h;
    hs_sum = Hist.sum h;
    hs_min = Hist.min_value h;
    hs_max = Hist.max_value h;
    hs_p50 = Hist.quantile h 0.50;
    hs_p99 = Hist.quantile h 0.99;
    hs_p999 = Hist.quantile h 0.999;
    hs_buckets = Hist.buckets h;
  }

let to_list t =
  Hashtbl.fold
    (fun name inst acc ->
      let v =
        match inst with
        | Counter c -> V_counter c.c
        | Gauge f ->
            (* A pathological gauge (NaN/inf callback) is clamped at
               read time so no consumer of [to_list] sees it. *)
            let g = f () in
            V_gauge (if Float.is_finite g then g else 0.0)
        | Histogram h -> V_histogram (snapshot_hist h)
      in
      (name, v) :: acc)
    t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* JSON-safe float: finite, fixed format so exports are byte-stable. *)
let jfloat f =
  let f = if Float.is_finite f then f else 0.0 in
  Printf.sprintf "%.6f" f

(* One JSON object per line: a snapshot greppable with standard
   line-oriented tools and append-friendly across runs. *)
let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, v) ->
      let body =
        match v with
        | V_counter n -> Printf.sprintf {|"type":"counter","value":%d|} n
        | V_gauge f -> Printf.sprintf {|"type":"gauge","value":%s|} (jfloat f)
        | V_histogram h ->
            let buckets =
              h.hs_buckets
              |> List.map (fun (le, n) -> Printf.sprintf "[%s,%d]" (jfloat le) n)
              |> String.concat ","
            in
            Printf.sprintf
              {|"type":"histogram","count":%d,"sum":%s,"min":%s,"max":%s,"p50":%s,"p99":%s,"p999":%s,"buckets":[%s]|}
              h.hs_count (jfloat h.hs_sum) (jfloat h.hs_min) (jfloat h.hs_max)
              (jfloat h.hs_p50) (jfloat h.hs_p99) (jfloat h.hs_p999) buckets
      in
      Buffer.add_string buf
        (Printf.sprintf "{\"name\":%s,%s}\n" (Json.quote name) body))
    (to_list t);
  Buffer.contents buf

let clear t = Hashtbl.reset t.tbl
