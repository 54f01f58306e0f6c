(* Span-based bottleneck attribution.

   Folds the complete ('X') spans of a finished trace into two
   aggregates:

   - a stack-keyed flamegraph: every span is assigned a path key built
     from its enclosing spans ("request;module_stack;lru_cache;…"),
     and per key we keep occurrence count, inclusive (total) time and
     exclusive (self) time. Nesting is recovered from timestamps with
     a containment scan — spans are sorted by (begin asc, duration
     desc, emission order) and pushed on a stack whose frames pop when
     their end passes; the telescoping stage API guarantees the spans
     of one request are well nested, so the scan is exact. The scan is
     [exclusive], exposed on its own so every anatomy table reads its
     per-layer software time from the same fold.

   - tail attribution: per-request stage durations are split into a
     p50 cohort (end-to-end latency <= the p50) and a tail cohort
     (>= the p99), and each stage's mean is reported per cohort — the
     direct answer to "which stage grows in the tail?".

   Only requests whose root "request" span was emitted participate
   (in-flight requests at run end have no root and are dropped).
   Everything is deterministic and the JSON export is byte-stable. *)

type node = {
  pf_key : string;
  pf_count : int;
  pf_total_ns : float;
  pf_self_ns : float;
}

type tail_row = { tr_stage : string; tr_p50_mean_ns : float; tr_tail_mean_ns : float }

type t = {
  requests : int;
  p50_ns : float;
  p99_ns : float;
  p50_cohort : int;
  tail_cohort : int;
  p50_e2e_mean_ns : float;
  tail_e2e_mean_ns : float;
  nodes : node list; (* sorted by key *)
  tail : tail_row list; (* sorted by stage name *)
}

(* Nearest-rank percentile over a sorted array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    sorted.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

type span = { sp_ev : Trace.ev; sp_path : string; sp_self_ns : float }

type frame = {
  fr_ev : Trace.ev;
  fr_path : string;
  fr_end : float;
  mutable fr_child : float;
}

let exclusive (evs : Trace.ev list) =
  (* Group spans per request, remembering emission order for the sort
     tie-break (deterministic input -> deterministic output). *)
  let by_req : (int, (int * Trace.ev) list ref) Hashtbl.t = Hashtbl.create 64 in
  let roots : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iteri
    (fun i (e : Trace.ev) ->
      if e.Trace.ev_ph = 'X' then begin
        (match Hashtbl.find_opt by_req e.Trace.ev_id with
        | Some l -> l := (i, e) :: !l
        | None -> Hashtbl.add by_req e.Trace.ev_id (ref [ (i, e) ]));
        if e.Trace.ev_cat = "request" then Hashtbl.replace roots e.Trace.ev_id ()
      end)
    evs;
  Hashtbl.fold
    (fun id spans acc ->
      if not (Hashtbl.mem roots id) then acc
        (* no root span: request still in flight at run end *)
      else begin
        (* Containment order: start asc, then at equal starts the
           longer span is the parent and is pushed first. Two
           refinements at equal starts: a zero-width span is a
           degenerate {e predecessor} (a stage that took no time), not
           a child, so it sorts first and is popped before the next
           span opens; and for equal (start, duration) — an inner span
           exactly filling its parent — the parent closes last, so
           with 'X' events emitted at span close the {e later}
           emission is the outer one. *)
        let sorted =
          List.sort
            (fun (ia, (a : Trace.ev)) (ib, (b : Trace.ev)) ->
              let c = Float.compare a.Trace.ev_ts b.Trace.ev_ts in
              if c <> 0 then c
              else
                let za = a.Trace.ev_dur = 0.0 and zb = b.Trace.ev_dur = 0.0 in
                if za <> zb then if za then -1 else 1
                else
                  let c = Float.compare b.Trace.ev_dur a.Trace.ev_dur in
                  if c <> 0 then c else Int.compare ib ia)
            !spans
        in
        let out = ref [] and stack = ref [] in
        let pop_frame f =
          out :=
            {
              sp_ev = f.fr_ev;
              sp_path = f.fr_path;
              sp_self_ns = Float.max 0.0 (f.fr_ev.Trace.ev_dur -. f.fr_child);
            }
            :: !out
        in
        let rec pop_until ts =
          match !stack with
          | f :: rest when f.fr_end <= ts ->
              pop_frame f;
              stack := rest;
              pop_until ts
          | _ -> ()
        in
        List.iter
          (fun (_, (e : Trace.ev)) ->
            pop_until e.Trace.ev_ts;
            let path =
              match !stack with
              | [] -> e.Trace.ev_name
              | parent :: _ ->
                  parent.fr_child <- parent.fr_child +. e.Trace.ev_dur;
                  parent.fr_path ^ ";" ^ e.Trace.ev_name
            in
            stack :=
              {
                fr_ev = e;
                fr_path = path;
                fr_end = e.Trace.ev_ts +. e.Trace.ev_dur;
                fr_child = 0.0;
              }
              :: !stack)
          sorted;
        List.iter pop_frame !stack;
        (id, List.rev !out) :: acc
      end)
    by_req []
  |> List.rev

type acc = { mutable a_count : int; mutable a_total : float; mutable a_self : float }

let of_events (evs : Trace.ev list) =
  let agg : (string, acc) Hashtbl.t = Hashtbl.create 64 in
  let acc_of path =
    match Hashtbl.find_opt agg path with
    | Some a -> a
    | None ->
        let a = { a_count = 0; a_total = 0.0; a_self = 0.0 } in
        Hashtbl.add agg path a;
        a
  in
  (* Per-request root duration and per-stage durations for the tail
     contrast. *)
  let roots : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let stage_names = ref [] in
  let req_stages : (int, (string, float) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  let req_ids = ref [] in
  List.iter
    (fun (id, spans) ->
      req_ids := id :: !req_ids;
      let stages = Hashtbl.create 8 in
      Hashtbl.replace req_stages id stages;
      List.iter
        (fun sp ->
          let e = sp.sp_ev in
          let a = acc_of sp.sp_path in
          a.a_count <- a.a_count + 1;
          a.a_total <- a.a_total +. e.Trace.ev_dur;
          a.a_self <- a.a_self +. sp.sp_self_ns;
          match e.Trace.ev_cat with
          | "request" -> Hashtbl.replace roots id e.Trace.ev_dur
          | "stage" ->
              if not (List.mem e.Trace.ev_name !stage_names) then
                stage_names := e.Trace.ev_name :: !stage_names;
              let prev =
                Option.value (Hashtbl.find_opt stages e.Trace.ev_name) ~default:0.0
              in
              Hashtbl.replace stages e.Trace.ev_name (prev +. e.Trace.ev_dur)
          | _ -> ())
        spans)
    (exclusive evs);
  let nodes =
    Hashtbl.fold
      (fun key a acc ->
        {
          pf_key = key;
          pf_count = a.a_count;
          pf_total_ns = a.a_total;
          pf_self_ns = a.a_self;
        }
        :: acc)
      agg []
    |> List.sort (fun a b -> String.compare a.pf_key b.pf_key)
  in
  (* Tail contrast: p50 cohort (e2e <= p50) vs tail cohort (>= p99). *)
  let durs =
    !req_ids
    |> List.map (fun id -> Hashtbl.find roots id)
    |> List.sort Float.compare |> Array.of_list
  in
  let requests = Array.length durs in
  let p50v = percentile durs 0.50 in
  let p99v = percentile durs 0.99 in
  let in_p50 id = Hashtbl.find roots id <= p50v in
  let in_tail id = Hashtbl.find roots id >= p99v in
  let cohort pred = List.filter pred !req_ids in
  let p50_ids = cohort in_p50 and tail_ids = cohort in_tail in
  let mean_of ids f =
    match ids with
    | [] -> 0.0
    | _ ->
        List.fold_left (fun s id -> s +. f id) 0.0 ids
        /. float_of_int (List.length ids)
  in
  let stage_dur id name =
    match Hashtbl.find_opt req_stages id with
    | None -> 0.0
    | Some tbl -> Option.value (Hashtbl.find_opt tbl name) ~default:0.0
  in
  let tail =
    !stage_names
    |> List.sort String.compare
    |> List.map (fun name ->
           {
             tr_stage = name;
             tr_p50_mean_ns = mean_of p50_ids (fun id -> stage_dur id name);
             tr_tail_mean_ns = mean_of tail_ids (fun id -> stage_dur id name);
           })
  in
  {
    requests;
    p50_ns = p50v;
    p99_ns = p99v;
    p50_cohort = List.length p50_ids;
    tail_cohort = List.length tail_ids;
    p50_e2e_mean_ns = mean_of p50_ids (fun id -> Hashtbl.find roots id);
    tail_e2e_mean_ns = mean_of tail_ids (fun id -> Hashtbl.find roots id);
    nodes;
    tail;
  }

(* --- export ------------------------------------------------------- *)

let jfloat f = Printf.sprintf "%.1f" (if Float.is_finite f then f else 0.0)

(* JSON object fragment; embedded by the Platform exporter next to the
   sampler's timeline object. *)
let to_json t =
  let b = Buffer.create 8192 in
  Buffer.add_string b
    (Printf.sprintf
       {|{"requests":%d,"p50_ns":%s,"p99_ns":%s,"flamegraph":[|} t.requests
       (jfloat t.p50_ns) (jfloat t.p99_ns));
  List.iteri
    (fun i n ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n{\"key\":\"%s\",\"count\":%d,\"total_ns\":%s,\"self_ns\":%s}"
           n.pf_key n.pf_count (jfloat n.pf_total_ns) (jfloat n.pf_self_ns)))
    t.nodes;
  Buffer.add_string b
    (Printf.sprintf
       "\n],\"tail\":{\"p50_requests\":%d,\"tail_requests\":%d,\"p50_e2e_mean_ns\":%s,\"tail_e2e_mean_ns\":%s,\"stages\":["
       t.p50_cohort t.tail_cohort (jfloat t.p50_e2e_mean_ns)
       (jfloat t.tail_e2e_mean_ns));
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n{\"stage\":\"%s\",\"p50_mean_ns\":%s,\"tail_mean_ns\":%s}"
           r.tr_stage (jfloat r.tr_p50_mean_ns) (jfloat r.tr_tail_mean_ns)))
    t.tail;
  Buffer.add_string b "\n]}}";
  Buffer.contents b
