(* Span tracer over simulated time.

   A tracer collects Chrome-trace-event-style spans ("X" complete
   events) and instants ("i") stamped with simulated-time nanoseconds.
   Each traced request carries a [flow]: a pooled handle holding the
   request id, the root begin timestamp, at most one currently-open
   stage, and a fixed-capacity stage-capture buffer.  Stages telescope
   — submit / queue_wait / dispatch / module_stack / complete / reap —
   closing one and opening the next at the same instant, so per-request
   stage durations sum exactly to the root "request" span.

   Sampling is deterministic: request [id] is traced iff [sample > 0]
   and a multiplicative hash of the id is 0 mod [sample].  Hashing
   first matters because request ids are stride-allocated (per-client
   counters, batched blocks), so a bare [id mod sample] can alias the
   stride and sample a biased cohort — every id from one client, none
   from another.

   Orthogonally, an [Exemplar.t] store turns the tracer into a
   retroactive one: when attached, *every* request gets a flow and its
   spans are recorded into the flow's capture buffer (preallocated,
   pooled, recycled at finish — zero allocation in steady state); only
   sampled flows additionally emit Chrome events.  At [finish] the
   buffer is offered to the store, which keeps the top-K slowest.

   With [sample = 0] and no store the per-request cost is a single
   option check ([Request.trace] stays [None]), and the tracer never
   schedules events or charges simulated time, so enabling or disabling
   it cannot change a run's timing or event count. *)

type ev = {
  ev_name : string;
  ev_cat : string;
  ev_ph : char; (* 'X' complete span | 'i' instant *)
  ev_ts : float; (* begin, simulated ns *)
  ev_dur : float; (* duration ns; 0 for instants *)
  ev_tid : int; (* simulated hardware thread *)
  ev_id : int; (* request id *)
  ev_args : (string * string) list;
}

type t = {
  sample : int;
  exemplars : Exemplar.t option;
  mutable rev_events : ev list;
  mutable count : int;
  mutable pool : flow array; (* array-stack of recycled flows *)
  mutable pool_n : int;
}

and flow = {
  fl_tr : t;
  mutable fl_id : int;
  mutable fl_t0 : float;
  mutable fl_emit : bool; (* sampled -> emit Chrome events *)
  mutable fl_open : bool;
  mutable fl_open_name : string;
  mutable fl_open_t0 : float;
  (* Capture buffer: parallel columns, [fl_n] live records. *)
  mutable fl_n : int;
  mutable fl_dropped : int;
  fl_names : string array;
  fl_cats : string array;
  fl_t0s : float array;
  fl_t1s : float array;
}

let create ?(sample = 0) ?exemplars () =
  { sample; exemplars; rev_events = []; count = 0; pool = [||]; pool_n = 0 }

let exemplars t = t.exemplars

(* Multiplicative hash (a 63-bit-safe odd constant from the SplitMix /
   xorshift family) decorrelates the sampling decision from id
   allocation strides; [land max_int] keeps the modulus non-negative. *)
let mix id =
  let h = id * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 31)) land max_int

let sampled t ~id = t.sample > 0 && mix id mod t.sample = 0

let emit tr ev =
  tr.rev_events <- ev :: tr.rev_events;
  tr.count <- tr.count + 1

(* ---- flow pool ---------------------------------------------------- *)

let cap = Exemplar.stage_capacity

let fresh_flow tr =
  {
    fl_tr = tr;
    fl_id = -1;
    fl_t0 = 0.0;
    fl_emit = false;
    fl_open = false;
    fl_open_name = "";
    fl_open_t0 = 0.0;
    fl_n = 0;
    fl_dropped = 0;
    fl_names = Array.make cap "";
    fl_cats = Array.make cap "";
    fl_t0s = Array.make cap 0.0;
    fl_t1s = Array.make cap 0.0;
  }

let acquire tr =
  if tr.pool_n > 0 then begin
    tr.pool_n <- tr.pool_n - 1;
    tr.pool.(tr.pool_n)
  end
  else fresh_flow tr

(* Flows that are never finished (deadline-missed, crash-lost) simply
   fall to the GC; only finished flows recycle, so a stale handle can
   never alias a live request's buffer. *)
let release tr fl =
  if tr.pool_n = Array.length tr.pool then begin
    let grown = Array.make (Stdlib.max 8 (2 * tr.pool_n)) fl in
    Array.blit tr.pool 0 grown 0 tr.pool_n;
    tr.pool <- grown
  end;
  tr.pool.(tr.pool_n) <- fl;
  tr.pool_n <- tr.pool_n + 1

let start t ~id ~now =
  let em = sampled t ~id in
  if em || t.exemplars <> None then begin
    let fl = acquire t in
    fl.fl_id <- id;
    fl.fl_t0 <- now;
    fl.fl_emit <- em;
    fl.fl_open <- false;
    fl.fl_n <- 0;
    fl.fl_dropped <- 0;
    Some fl
  end
  else None

(* ---- recording ---------------------------------------------------- *)

let record_stage fl ~name ~cat ~t0 ~t1 =
  if fl.fl_n < cap then begin
    let i = fl.fl_n in
    fl.fl_names.(i) <- name;
    fl.fl_cats.(i) <- cat;
    fl.fl_t0s.(i) <- t0;
    fl.fl_t1s.(i) <- t1;
    fl.fl_n <- i + 1
  end
  else fl.fl_dropped <- fl.fl_dropped + 1

(* A complete span ([ph] 'X') or, with [t0 = t1], an instant ('i'). *)
let emit_span ?(args = []) ?(ph = 'X') fl ~name ~cat ~tid ~t0 ~t1 =
  emit fl.fl_tr
    {
      ev_name = name;
      ev_cat = cat;
      ev_ph = ph;
      ev_ts = t0;
      ev_dur = (if t1 > t0 then t1 -. t0 else 0.0);
      ev_tid = tid;
      ev_id = fl.fl_id;
      ev_args = args;
    }

let span ?(args = []) fl ~name ~cat ~tid ~t0 ~t1 =
  if fl.fl_tr.exemplars <> None then record_stage fl ~name ~cat ~t0 ~t1;
  if fl.fl_emit then emit_span ~args fl ~name ~cat ~tid ~t0 ~t1

let instant ?(args = []) fl ~name ~tid ~now =
  if fl.fl_tr.exemplars <> None then
    record_stage fl ~name ~cat:"event" ~t0:now ~t1:now;
  if fl.fl_emit then
    emit_span ~args ~ph:'i' fl ~name ~cat:"event" ~tid ~t0:now ~t1:now

let open_stage fl ~name ~now =
  fl.fl_open <- true;
  fl.fl_open_name <- name;
  fl.fl_open_t0 <- now

let close_stage fl ~tid ~now =
  if fl.fl_open then begin
    fl.fl_open <- false;
    span fl ~name:fl.fl_open_name ~cat:"stage" ~tid ~t0:fl.fl_open_t0 ~t1:now
  end

(* Finish: close any open stage, emit the root span (sampled flows
   only — the root is not a capture record, so the captured stage-cat
   entries still tile the request exactly), offer the buffer to the
   exemplar store, recycle the flow. The flow must not be used after. *)
let finish fl ~tid ~now =
  close_stage fl ~tid ~now;
  if fl.fl_emit then
    emit_span fl ~name:"request" ~cat:"request" ~tid ~t0:fl.fl_t0 ~t1:now;
  (match fl.fl_tr.exemplars with
  | Some ex ->
      ignore
        (Exemplar.offer ex ~id:fl.fl_id ~t0:fl.fl_t0 ~latency:(now -. fl.fl_t0)
           ~n:fl.fl_n ~dropped:fl.fl_dropped ~names:fl.fl_names
           ~cats:fl.fl_cats ~t0s:fl.fl_t0s ~t1s:fl.fl_t1s
          : bool)
  | None -> ());
  release fl.fl_tr fl

let events t = List.rev t.rev_events
let event_count t = t.count

let clear t =
  t.rev_events <- [];
  t.count <- 0

(* --- Chrome trace-event JSON -------------------------------------- *)

(* Chrome timestamps are microseconds; "%.3f" keeps ns resolution with
   a fixed format so equal traces serialize byte-identically. *)
let us ns = Printf.sprintf "%.3f" (ns /. 1e3)

let event_json b ev =
  Buffer.add_string b
    (Printf.sprintf
       {|{"name":%s,"cat":%s,"ph":"%c","ts":%s,"pid":1,"tid":%d|}
       (Json.quote ev.ev_name) (Json.quote ev.ev_cat) ev.ev_ph (us ev.ev_ts)
       ev.ev_tid);
  if ev.ev_ph = 'X' then Buffer.add_string b (Printf.sprintf {|,"dur":%s|} (us ev.ev_dur));
  if ev.ev_ph = 'i' then Buffer.add_string b {|,"s":"t"|};
  let args = ("req", string_of_int ev.ev_id) :: ev.ev_args in
  Buffer.add_string b ",\"args\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Json.quote k);
      Buffer.add_char b ':';
      Buffer.add_string b (Json.quote v))
    args;
  Buffer.add_string b "}}"

(* Events in emission order: deterministic for a deterministic run, and
   Perfetto sorts by ts on load anyway. *)
let to_chrome_json t =
  let b = Buffer.create 65536 in
  Buffer.add_string b {|{"displayTimeUnit":"ns","traceEvents":[|};
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '\n';
      event_json b ev)
    (events t);
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
