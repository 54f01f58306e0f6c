(* Always-on flight recorder with triggered black-box dumps (see
   flightrec.mli). The ring is struct-of-arrays columns, preallocated:
   the last [cap] events, older ones overwritten. A record stores the
   time from a float cell and otherwise ints and a shared string, so
   it boxes no float, builds no option and allocates nothing.

   A trigger — an injected fault, a client-visible ENODEV/ETIMEDOUT, a
   deadline miss, an SLO burn rate above 1 — serializes the ring into
   a JSON snapshot of what the system was doing just before. *)

type kind =
  | Submit
  | Complete
  | Errno
  | Deadline
  | Park
  | Wake
  | Slo_roll
  | Fault
  | Sched
  | Trigger

let kind_name = function
  | Submit -> "submit"
  | Complete -> "complete"
  | Errno -> "errno"
  | Deadline -> "deadline"
  | Park -> "park"
  | Wake -> "wake"
  | Slo_roll -> "slo_roll"
  | Fault -> "fault"
  | Sched -> "sched"
  | Trigger -> "trigger"

type t = {
  cap : int;
  kinds : kind array;
  ts : float array;
  ids : int array;
  args : int array;
  tags : string array;
  mutable head : int; (* next write slot *)
  mutable recorded : int; (* total events ever recorded *)
  mutable triggers : int;
  max_dumps : int;
  mutable rev_dumps : string list; (* first [max_dumps] dumps, newest head *)
  mutable dumped_reasons : string list; (* one dump kept per reason *)
}

let create ?(max_dumps = 4) ~cap () =
  if cap <= 0 then invalid_arg "Flightrec.create: cap must be positive";
  {
    cap;
    kinds = Array.make cap Submit;
    ts = Array.make cap 0.0;
    ids = Array.make cap (-1);
    args = Array.make cap 0;
    tags = Array.make cap "";
    head = 0;
    recorded = 0;
    triggers = 0;
    max_dumps;
    rev_dumps = [];
    dumped_reasons = [];
  }

let cap t = t.cap
let recorded t = t.recorded
let triggers t = t.triggers
let dumps t = List.rev t.rev_dumps

(* The hot path: five array stores and two integer updates. The time
   is [cells.(c)], so it crosses the call unboxed; [tag] should be a
   shared/literal string — the recorder never copies or builds strings
   while recording. *)
let record t kind cells c ~id ~arg ~tag =
  let i = t.head in
  t.kinds.(i) <- kind;
  t.ts.(i) <- cells.(c);
  t.ids.(i) <- id;
  t.args.(i) <- arg;
  t.tags.(i) <- tag;
  t.head <- (if i + 1 = t.cap then 0 else i + 1);
  t.recorded <- t.recorded + 1

(* ---- read-out ----------------------------------------------------- *)

type event = {
  e_kind : string;
  e_ts : float;
  e_id : int;
  e_arg : int;
  e_tag : string;
}

(* Ring contents oldest-to-newest. *)
let events t =
  let n = Stdlib.min t.recorded t.cap in
  let out = ref [] in
  for j = n - 1 downto 0 do
    let i = (t.head - n + j + t.cap) mod t.cap in
    out :=
      {
        e_kind = kind_name t.kinds.(i);
        e_ts = t.ts.(i);
        e_id = t.ids.(i);
        e_arg = t.args.(i);
        e_tag = t.tags.(i);
      }
      :: !out
  done;
  !out

let fns v = Printf.sprintf "%.3f" v

let dump_json t ~reason ~now =
  let b = Buffer.create 8192 in
  Buffer.add_string b
    (Printf.sprintf {|{"reason":%s,"now_ns":%s,"events":[|} (Json.quote reason)
       (fns now));
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n{\"kind\":%s,\"ts_ns\":%s,\"id\":%d,\"arg\":%d,\"tag\":%s}"
           (Json.quote e.e_kind) (fns e.e_ts) e.e_id e.e_arg
           (Json.quote e.e_tag)))
    (events t);
  Buffer.add_string b "\n]}";
  Buffer.contents b

(* Fire a trigger: record it (so the dump's last event names its own
   cause), count it, and snapshot the ring for the first trigger of
   each distinct reason, up to [max_dumps] dumps total. Later triggers
   only count: a saturated failing run fires thousands of times and
   the earliest context per failure mode is the diagnostic one —
   dedup by reason keeps a rare trigger (a client-visible errno) from
   being crowded out by a chatty one (per-op injected faults). *)
let trigger t ~reason cells c =
  record t Trigger cells c ~id:(-1) ~arg:0 ~tag:reason;
  t.triggers <- t.triggers + 1;
  if
    List.length t.rev_dumps < t.max_dumps
    && not (List.mem reason t.dumped_reasons)
  then begin
    t.dumped_reasons <- reason :: t.dumped_reasons;
    t.rev_dumps <- dump_json t ~reason ~now:cells.(c) :: t.rev_dumps
  end

(* Export artifact: counters plus the retained dumps (each already a
   JSON object, embedded verbatim). Byte-stable. *)
let to_json t =
  let b = Buffer.create 8192 in
  Buffer.add_string b
    (Printf.sprintf {|{"cap":%d,"recorded":%d,"triggers":%d,"dumps":[|} t.cap
       t.recorded t.triggers);
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '\n';
      Buffer.add_string b d)
    (dumps t);
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
