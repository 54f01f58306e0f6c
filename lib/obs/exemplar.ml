(* Tail-latency exemplar store.

   The span tracer samples 1-in-N requests prospectively, so the
   p99.9 outliers that actually burn SLO budget are almost never in
   the sample. An [Exemplar.t] fixes that retroactively: every
   request's stage anatomy is captured into a pooled fixed-capacity
   buffer (see {!Trace.flow}), and at completion the buffer is either
   recycled (latency under the adaptive threshold — the common case,
   no allocation, no copy) or promoted into this bounded top-K store
   with its full stage breakdown.

   Promotion is a copy into preallocated entry slots: after the store
   warms up, the steady state allocates nothing. Eviction replaces the
   strictly-smallest stored latency, so the store converges on the K
   slowest requests seen; ties keep the incumbent, which makes the
   contents deterministic for a deterministic run.

   The default threshold is adaptive: the store keeps a [Hist] of every
   offered latency and, while it has a free slot, promotes what clears
   its corrected p99. The histogram's estimate never exceeds its exact
   running max, so a new slowest-so-far request always promotes. Once
   full, only the compare against the stored minimum decides (see
   [offer]). The store owns its instance rather than reading the
   registry's "client.latency_ns": it sees one sample per traced
   attempt (offered at [Trace.finish]), the registry one per logical
   request after retries, and sharing would change promotion
   decisions. Callers can instead wire an explicit closure —
   a fixed [exemplar_tail_us] floor, or any live signal. *)

(* Stage slots per captured request. The deepest stock stack
   (inject_lag/submit/queue_wait/dispatch/module_stack + one span per
   LabMod + complete/reap + a few instants) fits well inside 24. *)
let stage_capacity = 24

type entry = {
  mutable e_id : int;
  mutable e_t0 : float;
  mutable e_latency : float;
  mutable e_n : int; (* captured stage records *)
  mutable e_dropped : int; (* records past capacity *)
  e_names : string array;
  e_cats : string array;
  e_t0s : float array;
  e_t1s : float array;
}

type t = {
  k : int;
  entries : entry array;
  mutable n : int; (* live entries, <= k *)
  mutable min_i : int; (* once full: the first entry of least latency *)
  hist : Hist.t; (* every offered latency, for the adaptive p99 *)
  threshold : (unit -> float) option; (* None = adaptive p99 *)
  mutable offered : int;
  mutable promoted : int;
  mutable recycled : int;
  mutable evicted : int;
}

let fresh_entry () =
  {
    e_id = -1;
    e_t0 = 0.0;
    e_latency = 0.0;
    e_n = 0;
    e_dropped = 0;
    e_names = Array.make stage_capacity "";
    e_cats = Array.make stage_capacity "";
    e_t0s = Array.make stage_capacity 0.0;
    e_t1s = Array.make stage_capacity 0.0;
  }

let create ?threshold ~k () =
  let k = if k < 0 then 0 else k in
  {
    k;
    entries = Array.init k (fun _ -> fresh_entry ());
    n = 0;
    min_i = 0;
    hist = Hist.create ();
    threshold;
    offered = 0;
    promoted = 0;
    recycled = 0;
    evicted = 0;
  }

let threshold_ns t =
  match t.threshold with
  | Some f -> f ()
  | None -> Hist.quantile t.hist 0.99
let k t = t.k
let stored t = t.n
let offered t = t.offered
let promoted t = t.promoted
let recycled t = t.recycled
let evicted t = t.evicted

let fill e ~id ~t0 ~latency ~n ~dropped ~names ~cats ~t0s ~t1s =
  e.e_id <- id;
  e.e_t0 <- t0;
  e.e_latency <- latency;
  e.e_n <- n;
  e.e_dropped <- dropped;
  Array.blit names 0 e.e_names 0 n;
  Array.blit cats 0 e.e_cats 0 n;
  Array.blit t0s 0 e.e_t0s 0 n;
  Array.blit t1s 0 e.e_t1s 0 n

(* First minimum on ties, so the incumbent order is deterministic. *)
let find_min t =
  let mi = ref 0 in
  for i = 1 to t.k - 1 do
    if t.entries.(i).e_latency < t.entries.(!mi).e_latency then mi := i
  done;
  t.min_i <- !mi

(* Offer one completed request. Arrays belong to the caller's pooled
   flow buffer and are only read during the call; on promotion the
   first [n] records are copied into a preallocated slot. Returns
   [true] iff promoted.

   Once the store is full, the compare against the stored minimum
   decides, not the adaptive p99: that estimate is its bucket's upper
   bound clamped to the running max, so under overload the slowest 1%
   share the max's bucket and a request in the global top K, but below
   the max when offered, would be recycled. An explicit threshold still
   applies: it is a floor the caller chose. *)
let offer t ~id ~t0 ~latency ~n ~dropped ~names ~cats ~t0s ~t1s =
  t.offered <- t.offered + 1;
  Hist.observe t.hist latency;
  let n = Stdlib.min n stage_capacity in
  if t.k = 0 then begin
    t.recycled <- t.recycled + 1;
    false
  end
  else if t.n = t.k then begin
    (* Full: replace the strictly-smallest latency. Equal latencies keep
       the incumbent. *)
    let e = t.entries.(t.min_i) in
    if
      latency > e.e_latency
      && match t.threshold with Some f -> latency >= f () | None -> true
    then begin
      fill e ~id ~t0 ~latency ~n ~dropped ~names ~cats ~t0s ~t1s;
      find_min t;
      t.evicted <- t.evicted + 1;
      t.promoted <- t.promoted + 1;
      true
    end
    else begin
      t.recycled <- t.recycled + 1;
      false
    end
  end
  else if latency < threshold_ns t then begin
    t.recycled <- t.recycled + 1;
    false
  end
  else begin
    fill t.entries.(t.n) ~id ~t0 ~latency ~n ~dropped ~names ~cats ~t0s ~t1s;
    t.n <- t.n + 1;
    if t.n = t.k then find_min t;
    t.promoted <- t.promoted + 1;
    true
  end

(* ---- read-out ----------------------------------------------------- *)

type stage = { s_name : string; s_cat : string; s_t0 : float; s_t1 : float }

type view = {
  v_id : int;
  v_t0 : float;
  v_latency : float;
  v_dropped : int;
  v_stages : stage list;
}

(* Slowest first; equal latencies order by request id so two same-seed
   runs render identically. *)
let ranked t =
  let live = Array.sub t.entries 0 t.n in
  Array.sort
    (fun a b ->
      match Stdlib.compare b.e_latency a.e_latency with
      | 0 -> Stdlib.compare a.e_id b.e_id
      | c -> c)
    live;
  live

let dump t =
  Array.to_list (ranked t)
  |> List.map (fun e ->
         let stages = ref [] in
         for i = e.e_n - 1 downto 0 do
           stages :=
             {
               s_name = e.e_names.(i);
               s_cat = e.e_cats.(i);
               s_t0 = e.e_t0s.(i);
               s_t1 = e.e_t1s.(i);
             }
             :: !stages
         done;
         {
           v_id = e.e_id;
           v_t0 = e.e_t0;
           v_latency = e.e_latency;
           v_dropped = e.e_dropped;
           v_stages = !stages;
         })

let fns v = Printf.sprintf "%.3f" v

(* Byte-stable: fixed float format, deterministic order. *)
let to_json t =
  let b = Buffer.create 8192 in
  Buffer.add_string b
    (Printf.sprintf
       {|{"k":%d,"stored":%d,"offered":%d,"promoted":%d,"recycled":%d,"evicted":%d,"threshold_ns":%s,"exemplars":[|}
       t.k t.n t.offered t.promoted t.recycled t.evicted
       (fns (threshold_ns t)));
  Array.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n{\"id\":%d,\"t0_ns\":%s,\"latency_ns\":%s,\"stages_dropped\":%d,\"stages\":["
           e.e_id (fns e.e_t0) (fns e.e_latency) e.e_dropped);
      for j = 0 to e.e_n - 1 do
        if j > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf {|{"name":%s,"cat":%s,"t0_ns":%s,"dur_ns":%s}|}
             (Json.quote e.e_names.(j))
             (Json.quote e.e_cats.(j))
             (fns e.e_t0s.(j))
             (fns (e.e_t1s.(j) -. e.e_t0s.(j))))
      done;
      Buffer.add_string b "]}")
    (ranked t);
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
