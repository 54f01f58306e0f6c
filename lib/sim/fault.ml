type fault =
  | Io_error
  | Transient_timeout of float
  | Torn_write of int

type rates = {
  io_error : float;
  timeout : float;
  timeout_delay_ns : float;
  torn_write : float;
}

let no_rates =
  { io_error = 0.0; timeout = 0.0; timeout_delay_ns = 0.0; torn_write = 0.0 }

type event =
  | Offline of { from_ns : float; until_ns : float; queue : int option }
  | One_shot of { at_ns : float; queue : int option; fault : fault }

type decision =
  | Pass
  | Fail_io
  | Delay of float
  | Torn of int
  | Reject_offline

type one_shot = { at_ns : float; os_queue : int option; os_fault : fault }

type t = {
  rng : Rng.t;
  rates : rates;
  windows : (float * float * int option) list;
  mutable pending : one_shot list;  (* sorted by at_ns, unconsumed *)
  mutable rev_trace : string list;
  mutable observer : (now:float -> queue:int -> label:string -> unit) option;
      (* injection hook: called once per injected (non-Pass) decision
         with a literal category label — the flight recorder rides it *)
  mutable io_errors : int;
  mutable timeouts : int;
  mutable torn_writes : int;
  mutable offline_rejects : int;
}

let create ?(rates = no_rates) ?(script = []) ~seed () =
  let windows =
    List.filter_map
      (function
        | Offline { from_ns; until_ns; queue } -> Some (from_ns, until_ns, queue)
        | One_shot _ -> None)
      script
  in
  let pending =
    List.sort
      (fun a b -> Float.compare a.at_ns b.at_ns)
      (List.filter_map
         (function
           | One_shot { at_ns; queue; fault } ->
               Some { at_ns; os_queue = queue; os_fault = fault }
           | Offline _ -> None)
         script)
  in
  {
    rng = Rng.create seed;
    rates;
    windows;
    pending;
    rev_trace = [];
    observer = None;
    io_errors = 0;
    timeouts = 0;
    torn_writes = 0;
    offline_rejects = 0;
  }

let offline_windows t = t.windows

let offline t ~now ~queue =
  List.exists
    (fun (from_ns, until_ns, q) ->
      now >= from_ns && now < until_ns
      && match q with None -> true | Some q -> q = queue)
    t.windows

let record t ~now ~queue label =
  t.rev_trace <- Printf.sprintf "%.0f q%d %s" now queue label :: t.rev_trace

let clamp_torn ~bytes n = Stdlib.max 0 (Stdlib.min n (bytes - 1))

(* Turn a scripted fault into a decision, downgrading write-only faults
   on read commands. *)
let decision_of_fault ~is_write ~bytes = function
  | Io_error -> Fail_io
  | Transient_timeout d -> Delay d
  | Torn_write n -> if is_write then Torn (clamp_torn ~bytes n) else Fail_io

let take_one_shot t ~now ~queue =
  let matches os =
    os.at_ns <= now
    && match os.os_queue with None -> true | Some q -> q = queue
  in
  let rec split acc = function
    | [] -> None
    | os :: rest when matches os ->
        t.pending <- List.rev_append acc rest;
        Some os.os_fault
    | os :: rest -> split (os :: acc) rest
  in
  split [] t.pending

let set_observer t f = t.observer <- Some f

let observe t ~now ~queue label =
  match t.observer with None -> () | Some f -> f ~now ~queue ~label

let count_and_trace t ~now ~queue ~bytes d =
  (match d with
  | Pass -> ()
  | Fail_io ->
      t.io_errors <- t.io_errors + 1;
      record t ~now ~queue "io_error";
      observe t ~now ~queue "io_error"
  | Delay d ->
      t.timeouts <- t.timeouts + 1;
      record t ~now ~queue
        (if Float.is_finite d then Printf.sprintf "timeout +%.0f" d
         else "timeout lost");
      observe t ~now ~queue "timeout"
  | Torn n ->
      t.torn_writes <- t.torn_writes + 1;
      record t ~now ~queue (Printf.sprintf "torn %d/%d" n bytes);
      observe t ~now ~queue "torn_write"
  | Reject_offline ->
      t.offline_rejects <- t.offline_rejects + 1;
      record t ~now ~queue "offline_reject";
      observe t ~now ~queue "offline_reject");
  d

let decide t ~now ~queue ~is_write ~bytes =
  if offline t ~now ~queue then
    count_and_trace t ~now ~queue ~bytes Reject_offline
  else
    match take_one_shot t ~now ~queue with
    | Some f ->
        count_and_trace t ~now ~queue ~bytes
          (decision_of_fault ~is_write ~bytes f)
    | None ->
        let r = t.rates in
        let torn = if is_write then r.torn_write else 0.0 in
        let total = r.io_error +. r.timeout +. torn in
        if total <= 0.0 then Pass
        else begin
          let u = Rng.float t.rng 1.0 in
          if u < r.io_error then count_and_trace t ~now ~queue ~bytes Fail_io
          else if u < r.io_error +. r.timeout then
            count_and_trace t ~now ~queue ~bytes (Delay r.timeout_delay_ns)
          else if u < total then
            count_and_trace t ~now ~queue ~bytes
              (Torn (clamp_torn ~bytes (Rng.int t.rng (Stdlib.max 1 bytes))))
          else Pass
        end

let injected t =
  [
    ("io_error", t.io_errors);
    ("timeout", t.timeouts);
    ("torn_write", t.torn_writes);
    ("offline_reject", t.offline_rejects);
  ]

let injected_total t = List.fold_left (fun acc (_, n) -> acc + n) 0 (injected t)

let trace t = List.rev t.rev_trace

let trace_to_string t = String.concat "\n" (trace t)
