(* Discrete-event engine, zero-allocation hot path.

   Events live in an int-indexed pool: parallel arrays of tag / payload
   / int-arg, with the free list threaded through [args]. Scheduling
   reuses a slot and pushes (time, seq, slot) into the monomorphic
   {!Evq} calendar queue; dispatch switches on the tag instead of
   calling a megamorphic [unit -> unit] closure:

     tag 1  run a [unit -> unit] thunk (generic [schedule])
     tag 2  resume an effect continuation ([wait] / [unpark])
     tag 3  call a preallocated [int -> unit] with the slot's int arg
            ({!timer} — the fully closure-free path)
     tag 4  start a process under the engine's effect handler ([spawn])

   Slots are freed (tag 0) before dispatch so the callback can
   reschedule straight into the slot it just vacated.

   A poll chain (see {!arm}) keeps a spinning poller's next event
   out of the queue as a pending (time, seq) key. Before an event is
   run, every chained poll that sorts before it is elided: it takes the
   seq its re-arm would have taken and counts as executed, so the
   schedule is the one the queued polls would have produced.

   Floats are kept out of function signatures on the hot path — an
   OCaml float crossing a non-inlined call is boxed — by staging times
   through [Evq.key_in]/[key_out] and keeping the engine's own hot
   floats (now, next_tick, tick period/base, the pending [wait] delay)
   in the flat [fl] array. The effect handler, its [Some callback]
   returns, and [Some t] for [current_engine] are all preallocated at
   {!create} time, so steady-state [timer] traffic allocates nothing
   and [wait] traffic allocates only the runtime's continuation. *)

type t = {
  evq : Evq.t;
  mutable seq : int;
  mutable executed : int;
  (* fl.(0) now · fl.(1) next_tick · fl.(2) tick_period ·
     fl.(3) tick_base · fl.(4) delay staged by [wait] for the handler ·
     fl.(5) horizon of the current [run] (infinity for [step]) ·
     fl.(6) time of the key chained polls are elided up to ([bseq]) *)
  fl : float array;
  mutable bseq : int;
  (* armed poll chains, [armed.(0 .. narmed - 1)] *)
  mutable armed : chain array;
  mutable narmed : int;
  mutable elided : int;
  mutable performs : int;  (* effect performs: [wait], [wait_cell], [park] *)
  mutable stop : bool ref;  (* the stop cell of the innermost [run] *)
  mutable tick_fn : (float -> unit) option;
  mutable tick_k : int;  (* next boundary is base +. float k *. period *)
  (* event pool *)
  mutable tags : int array;
  mutable pays : Obj.t array;
  mutable args : int array;  (* tag 3 argument, or free-list next *)
  mutable free_head : int;  (* -1 = pool exhausted *)
  (* preallocated once per engine; mutable only for create-time tying *)
  mutable eff_handler : (unit, unit) Effect.Deep.handler;
  mutable wait_some : ((unit, unit) Effect.Deep.continuation -> unit) option;
  mutable park_some : ((unit, unit) Effect.Deep.continuation -> unit) option;
  mutable park_into : park_cell;
  mutable self_some : t option;
}

(* A reusable parking spot: the suspended continuation is stored
   directly in the cell, so park/unpark needs no per-use closure, ref
   cell, or queue node — only the continuation the runtime itself
   allocates at the perform. [peng] caches the owning engine (written
   once per cell in steady state) so {!unpark} works from outside any
   process. *)
and park_cell = { mutable pk : Obj.t; mutable peng : t option }

(* A poller's next poll, held as a key instead of a queued event while
   it is armed. [cells] is the caller's: deadline at 0, period at 1. *)
and chain = {
  ceng : t;
  cells : float array;
  ckey : float array;  (* [0] = time of the pending poll *)
  mutable cseq : int;  (* seq of the pending poll *)
  mutable cpos : int;  (* index in [ceng.armed]; -1 = not armed *)
  mutable cfn : unit -> unit;
}

(* Payload-free: the per-perform data rides in engine fields ([fl].(4)
   for the wait delay, [park_into] for park) — a payload would
   allocate a tuple and box the float on every perform. The
   performing process always runs under its own engine's handler, so
   no owner field is needed to route the effect. *)
type _ Effect.t += Wait : unit Effect.t
type _ Effect.t += Park : unit Effect.t

(* The engine a process belongs to, used so [wait]/[park] need no
   explicit engine argument. Set for the dynamic extent of [run]/[step]
   (not per event — saving/restoring per event cost a [Fun.protect]
   closure on every dispatch). *)
let current_engine : t option ref = ref None

(* The default [stop] cell of {!run}, which nothing sets. *)
let never = ref false

let dummy_pay : Obj.t = Obj.repr ()

let dummy_cell : park_cell = { pk = dummy_pay; peng = None }

let make_park_cell () = { pk = dummy_pay; peng = None }

let dummy_handler : (unit, unit) Effect.Deep.handler =
  {
    Effect.Deep.retc = (fun () -> ());
    exnc = raise;
    effc = (fun (type a) (_ : a Effect.t) -> None);
  }

(* ---------------- event pool ---------------- *)

let[@inline never] pool_grow t =
  let old = Array.length t.tags in
  let n = Stdlib.max 64 (2 * old) in
  let tags = Array.make n 0 in
  let pays = Array.make n dummy_pay in
  let args = Array.make n 0 in
  Array.blit t.tags 0 tags 0 old;
  Array.blit t.pays 0 pays 0 old;
  Array.blit t.args 0 args 0 old;
  for i = old to n - 1 do
    args.(i) <- i + 1
  done;
  args.(n - 1) <- -1;
  t.tags <- tags;
  t.pays <- pays;
  t.args <- args;
  t.free_head <- old

(* Grow only ever runs with the free list empty, so this returns a
   valid slot unconditionally. *)
let[@inline] alloc_slot t =
  if t.free_head < 0 then pool_grow t;
  let slot = t.free_head in
  t.free_head <- Array.unsafe_get t.args slot;
  slot

(* ---------------- construction ---------------- *)

let create () =
  let t =
    {
      evq = Evq.create ();
      seq = 0;
      executed = 0;
      fl = [| 0.0; Float.infinity; 0.0; 0.0; 0.0; Float.infinity; 0.0 |];
      bseq = 0;
      armed = [||];
      narmed = 0;
      elided = 0;
      performs = 0;
      stop = never;
      tick_fn = None;
      tick_k = 0;
      tags = [||];
      pays = [||];
      args = [||];
      free_head = -1;
      eff_handler = dummy_handler;
      wait_some = None;
      park_some = None;
      park_into = dummy_cell;
      self_some = None;
    }
  in
  t.self_some <- Some t;
  (* Handle Wait: pop the staged delay and park the continuation in a
     pooled tag-2 slot due at now + delay. Everything here is field
     traffic on [t] — no floats cross a call, nothing allocates. *)
  t.wait_some <-
    Some
      (fun k ->
        let fl = t.fl in
        let d = fl.(4) in
        let d = if d < 0.0 then 0.0 else d in
        let slot = alloc_slot t in
        t.tags.(slot) <- 2;
        t.pays.(slot) <- Obj.repr k;
        t.seq <- t.seq + 1;
        t.evq.Evq.key_in.(0) <- fl.(0) +. d;
        Evq.push t.evq ~seq:t.seq ~slot);
  (* Handle Park: stash the continuation in the caller-supplied cell.
     Pure field traffic — no event, no closure, no allocation beyond
     the continuation itself. *)
  t.park_some <-
    Some
      (fun k ->
        let c = t.park_into in
        t.park_into <- dummy_cell;
        c.pk <- Obj.repr k);
  let effc : type a.
      a Effect.t -> ((a, unit) Effect.Deep.continuation -> unit) option =
    function
    | Wait -> t.wait_some
    | Park -> t.park_some
    | _ -> None
  in
  t.eff_handler <- { Effect.Deep.retc = (fun () -> ()); exnc = raise; effc };
  t

let now t = t.fl.(0)

(* ---------------- scheduling ---------------- *)

let schedule t time thunk =
  let slot = alloc_slot t in
  t.tags.(slot) <- 1;
  t.pays.(slot) <- Obj.repr thunk;
  t.seq <- t.seq + 1;
  t.evq.Evq.key_in.(0) <- time;
  Evq.push t.evq ~seq:t.seq ~slot

(* Queue a tag-3 event; its due time is already staged in [key_in]. *)
let[@inline] push_timer t fn arg =
  let slot = alloc_slot t in
  (* Unchecked: [slot] comes from the free list, always in bounds. *)
  Array.unsafe_set t.tags slot 3;
  Array.unsafe_set t.pays slot (Obj.repr fn);
  Array.unsafe_set t.args slot arg;
  t.seq <- t.seq + 1;
  Evq.push t.evq ~seq:t.seq ~slot

let timer t ~ns fn arg =
  let ns = if ns < 0 then 0 else ns in
  Array.unsafe_set t.evq.Evq.key_in 0
    (Array.unsafe_get t.fl 0 +. Stdlib.float_of_int ns);
  push_timer t fn arg

(* Float cells owned by the caller: delays and deadlines are read and
   compared here, next to [fl], so neither they nor the clock cross a
   call boxed. *)
let reached t cells i = Array.unsafe_get t.fl 0 >= cells.(i)

let spawn t f =
  let slot = alloc_slot t in
  t.tags.(slot) <- 4;
  t.pays.(slot) <- Obj.repr f;
  t.seq <- t.seq + 1;
  t.evq.Evq.key_in.(0) <- t.fl.(0);
  Evq.push t.evq ~seq:t.seq ~slot

let spawn_at t time f =
  let time = Stdlib.max time t.fl.(0) in
  let slot = alloc_slot t in
  t.tags.(slot) <- 4;
  t.pays.(slot) <- Obj.repr f;
  t.seq <- t.seq + 1;
  t.evq.Evq.key_in.(0) <- time;
  Evq.push t.evq ~seq:t.seq ~slot

(* ---------------- process-side API ---------------- *)

let engine_of_process () =
  match !current_engine with
  | Some t -> t
  | None -> invalid_arg "Engine.wait/park called outside a process"

let set_after cells i d = cells.(i) <- (engine_of_process ()).fl.(0) +. d


let wait d =
  let t = engine_of_process () in
  t.fl.(4) <- d;
  t.performs <- t.performs + 1;
  Effect.perform Wait

let park cell =
  if cell.pk != dummy_pay then invalid_arg "Engine.park: cell is not empty";
  let t = engine_of_process () in
  (match cell.peng with
  | Some e when e == t -> ()
  | _ -> cell.peng <- Some t);
  t.park_into <- cell;
  t.performs <- t.performs + 1;
  Effect.perform Park

(* One-shot: the first unpark schedules the parked continuation at the
   owning engine's current time, taking the next seq; later calls (or
   calls on an empty cell) are no-ops. *)
let unpark cell =
  if cell.pk != dummy_pay then
    match cell.peng with
    | None -> ()
    | Some t ->
        let k = cell.pk in
        cell.pk <- dummy_pay;
        let slot = alloc_slot t in
        t.tags.(slot) <- 2;
        t.pays.(slot) <- k;
        t.seq <- t.seq + 1;
        t.evq.Evq.key_in.(0) <- t.fl.(0);
        Evq.push t.evq ~seq:t.seq ~slot

let parked cell = cell.pk != dummy_pay

(* ---------------- fork-join ---------------- *)

(* A countdown over a park cell: the arrival that takes [left] to 0
   unparks the awaiting process. *)
type join = { mutable left : int; jcell : park_cell }

let join n = { left = n; jcell = make_park_cell () }

let arrive j =
  if j.left > 0 then begin
    j.left <- j.left - 1;
    if j.left = 0 then unpark j.jcell
  end

let await j = if j.left > 0 then park j.jcell

let joined j = j.left <= 0

let suspend register =
  let j = join 1 in
  register (fun () -> arrive j);
  await j

(* Continue the parked process right here, inside the event being
   dispatched, instead of queueing a tag-2 event for it: the resumed
   process runs until its next perform and control comes back to the
   caller. Only a timer or poll-chain callback may do this (see the
   .mli) — the process then takes the callback event's place in the
   schedule. *)
let resume_in_place cell =
  if cell.pk != dummy_pay then begin
    let k = cell.pk in
    cell.pk <- dummy_pay;
    Effect.Deep.continue (Obj.obj k : (unit, unit) Effect.Deep.continuation) ()
  end

(* ---------------- poll chains ---------------- *)

let chain t cells =
  {
    ceng = t;
    cells;
    ckey = [| 0.0 |];
    cseq = 0;
    cpos = -1;
    cfn = ignore;
  }

let[@inline] before (t1 : float) (s1 : int) (t2 : float) (s2 : int) =
  t1 < t2 || (t1 = t2 && s1 < s2)

let[@inline] disarm t c =
  let n = t.narmed - 1 in
  let last = Array.unsafe_get t.armed n in
  Array.unsafe_set t.armed c.cpos last;
  last.cpos <- c.cpos;
  t.narmed <- n;
  c.cpos <- -1

(* Queue the chain's pending poll as the tag-1 event it stands for, at
   its own (time, seq) key. *)
let push_poll t c =
  let slot = alloc_slot t in
  Array.unsafe_set t.tags slot 1;
  Array.unsafe_set t.pays slot (Obj.repr c.cfn);
  Array.unsafe_set t.evq.Evq.key_in 0 (Array.unsafe_get c.ckey 0);
  Evq.push t.evq ~seq:c.cseq ~slot

let arm c fn =
  let t = c.ceng in
  if c.cpos >= 0 then invalid_arg "Engine.arm: chain already armed";
  let d = Array.unsafe_get c.cells 1 in
  let d = if d < 0.0 then 0.0 else d in
  let key = Array.unsafe_get t.fl 0 +. d in
  if d <= 0.0 && key < Array.unsafe_get c.cells 0 then
    invalid_arg "Engine.arm: period must be positive before the deadline";
  c.cfn <- fn;
  Array.unsafe_set c.ckey 0 key;
  t.seq <- t.seq + 1;
  c.cseq <- t.seq;
  if key >= Array.unsafe_get c.cells 0 then push_poll t c
  else begin
    if t.narmed = Array.length t.armed then begin
      let a = Array.make (Stdlib.max 4 (2 * t.narmed)) c in
      Array.blit t.armed 0 a 0 t.narmed;
      t.armed <- a
    end;
    Array.unsafe_set t.armed t.narmed c;
    c.cpos <- t.narmed;
    t.narmed <- t.narmed + 1
  end

let fire c =
  if c.cpos >= 0 then begin
    let t = c.ceng in
    disarm t c;
    push_poll t c
  end

(* Elide, in (time, seq) order across chains, every armed poll that
   sorts before the bound key (fl.(6), bseq) and is due within the
   horizon fl.(5). An elided poll is the empty re-arm it stands for: it
   counts as executed and takes the next seq, at the point in the seq
   stream where the queued poll would have run. A poll whose next
   instant reaches its deadline is queued for real; when that lands
   before the bound, the bound drops to it and the result is true. *)
let catch_up t =
  let fl = t.fl in
  let lowered = ref false in
  let go = ref true in
  while !go && t.narmed > 0 do
    let armed = t.armed in
    let b = ref (Array.unsafe_get armed 0) in
    for i = 1 to t.narmed - 1 do
      let c = Array.unsafe_get armed i in
      if
        before
          (Array.unsafe_get c.ckey 0)
          c.cseq
          (Array.unsafe_get !b.ckey 0)
          !b.cseq
      then b := c
    done;
    let c = !b in
    let key = c.ckey in
    if
      before (Array.unsafe_get key 0) c.cseq (Array.unsafe_get fl 6) t.bseq
      && Array.unsafe_get key 0 <= Array.unsafe_get fl 5
    then begin
      t.executed <- t.executed + 1;
      t.elided <- t.elided + 1;
      t.seq <- t.seq + 1;
      c.cseq <- t.seq;
      let d = Array.unsafe_get c.cells 1 in
      Array.unsafe_set key 0
        (Array.unsafe_get key 0 +. if d < 0.0 then 0.0 else d);
      if Array.unsafe_get key 0 >= Array.unsafe_get c.cells 0 then begin
        disarm t c;
        push_poll t c;
        if
          before (Array.unsafe_get key 0) c.cseq (Array.unsafe_get fl 6)
            t.bseq
        then begin
          Array.unsafe_set fl 6 (Array.unsafe_get key 0);
          t.bseq <- c.cseq;
          lowered := true
        end
      end
    end
    else go := false
  done;
  !lowered

let elide_before t ~key ~seq ~horizon =
  t.fl.(5) <- horizon;
  t.fl.(6) <- key;
  t.bseq <- seq;
  catch_up t

let bound t = (t.fl.(6), t.bseq)

let last_seq t = t.seq

let chain_state c = (c.ckey.(0), c.cseq, c.cpos >= 0)

(* ---------------- ticks ---------------- *)

let set_tick t ~period f =
  if period <= 0.0 then invalid_arg "Engine.set_tick: period must be positive";
  let fl = t.fl in
  fl.(2) <- period;
  fl.(3) <- fl.(0);
  t.tick_k <- 1;
  t.tick_fn <- Some f;
  fl.(1) <- fl.(3) +. period

(* Fire the tick hook at every period boundary up to [time], then land
   the clock on [time]. Boundaries are derived as base + k*period — not
   accumulated with [+. period] per tick — so sample instants carry no
   cumulative rounding drift over long runs. Out of line: it runs only
   when a tick is installed and due. *)
let[@inline never] advance_ticks t time =
  let fl = t.fl in
  (match t.tick_fn with
  | Some f ->
      let period = fl.(2) in
      if period > 0.0 then
        while fl.(1) <= time do
          let b = fl.(1) in
          fl.(0) <- b;
          f b;
          t.tick_k <- t.tick_k + 1;
          fl.(1) <- fl.(3) +. (Stdlib.float_of_int t.tick_k *. period)
        done
  | None -> ());
  fl.(0) <- time

(* ---------------- dispatch ---------------- *)

let[@inline] dispatch t slot =
  (* Unchecked: [slot] was allocated from this pool and the pool never
     shrinks, so it is always in bounds. *)
  let tag = Array.unsafe_get t.tags slot in
  let pay = Array.unsafe_get t.pays slot in
  let arg = Array.unsafe_get t.args slot in
  (* Free before calling: the callback may reschedule into this slot. *)
  Array.unsafe_set t.tags slot 0;
  Array.unsafe_set t.pays slot dummy_pay;
  Array.unsafe_set t.args slot t.free_head;
  t.free_head <- slot;
  match tag with
  | 1 -> (Obj.obj pay : unit -> unit) ()
  | 2 ->
      Effect.Deep.continue
        (Obj.obj pay : (unit, unit) Effect.Deep.continuation)
        ()
  | 3 -> (Obj.obj pay : int -> unit) arg
  | 4 -> Effect.Deep.match_with (Obj.obj pay : unit -> unit) () t.eff_handler
  | _ -> assert false

(* Advance the clock to the just-popped event's time and run it. The
   no-tick case is two array cells compared and one store; the tick
   loop is out of line. *)
let[@inline] exec t slot =
  let fl = t.fl in
  let time = t.evq.Evq.key_out.(0) in
  if time >= fl.(1) then advance_ticks t time else fl.(0) <- time;
  t.executed <- t.executed + 1;
  dispatch t slot

(* ---------------- driving ---------------- *)

(* Pop the next event to run, first eliding the chained polls due
   before it; -1 when nothing is due within the horizon. A chain that
   reached its deadline before the popped event queued its poll, so
   that event goes back at its own key and the pop is retried. With the
   queue empty, the chains run to their deadline polls or the
   horizon. *)
let rec next_chained t slot =
  let q = t.evq in
  if slot >= 0 then begin
    Array.unsafe_set t.fl 6 (Array.unsafe_get q.Evq.key_out 0);
    t.bseq <- q.Evq.out_seq;
    if catch_up t then begin
      Array.unsafe_set q.Evq.key_in 0 (Array.unsafe_get q.Evq.key_out 0);
      Evq.push q ~seq:q.Evq.out_seq ~slot;
      next_chained t (Evq.pop q)
    end
    else slot
  end
  else begin
    Array.unsafe_set t.fl 6 Float.infinity;
    t.bseq <- Stdlib.max_int;
    ignore (catch_up t);
    if Evq.is_empty q then -1 else next_chained t (Evq.pop q)
  end

(* With no chain armed, a pop is all there is to it. *)
let[@inline] next t =
  let slot = Evq.pop t.evq in
  if t.narmed = 0 then slot else next_chained t slot

let step t =
  t.fl.(5) <- Float.infinity;
  let slot = next t in
  if slot < 0 then false
  else begin
    let saved = !current_engine in
    current_engine := t.self_some;
    (match exec t slot with
    | () -> current_engine := saved
    | exception e ->
        current_engine := saved;
        raise e);
    true
  end

(* The hot loop costs exactly one queue operation per event; the
   [current_engine] save/restore happens once per [run], not per event.
   The [stop] cell is read after each event, so a caller such as
   [Platform.go] halts right after the event that sets it. The engine
   holds the innermost run's cell (a field, so no closure of [run]
   grows) and [run] puts the outer one back on the way out, so a nested
   [run] cannot halt the one around it.
   With an [until] bound the one event past the horizon is pushed back
   — it re-enters with its original (time, seq) key, so it re-lands in
   its exact slot — instead of peeking before every pop. *)
let run ?until ?(stop = never) t =
  let saved = !current_engine in
  let outer = t.stop in
  current_engine := t.self_some;
  t.stop <- stop;
  match
    Fun.protect
      ~finally:(fun () -> current_engine := saved)
      (fun () ->
        match until with
        | None ->
            t.fl.(5) <- Float.infinity;
            let rec drain () =
              let slot = next t in
              if slot >= 0 then begin
                exec t slot;
                if not !(t.stop) then drain ()
              end
            in
            drain ()
        | Some limit ->
            t.fl.(5) <- limit;
            let rec drain () =
              let slot = next t in
              if slot >= 0 then
                if t.evq.Evq.key_out.(0) > limit then begin
                  advance_ticks t limit;
                  t.evq.Evq.key_in.(0) <- t.evq.Evq.key_out.(0);
                  Evq.push t.evq ~seq:t.evq.Evq.out_seq ~slot
                end
                else begin
                  exec t slot;
                  if not !(t.stop) then drain ()
                end
              else if t.narmed > 0 then
                (* The chains' next polls lie past the horizon. *)
                advance_ticks t limit
            in
            drain ())
  with
  | () -> t.stop <- outer
  | exception e ->
      t.stop <- outer;
      raise e

let active t = t.narmed > 0 || not (Evq.is_empty t.evq)

let events_executed t = t.executed

let polls_elided t = t.elided

let performs t = t.performs

(* Blank the pool — not just the queue — so dropped events release
   their closures/continuations to the GC instead of pinning them in
   stale slots (the old heap-backed engine leaked exactly that way). *)
let stop_all t =
  Evq.clear t.evq;
  for i = 0 to t.narmed - 1 do
    t.armed.(i).cpos <- -1
  done;
  t.armed <- [||];
  t.narmed <- 0;
  let n = Array.length t.tags in
  if n > 0 then begin
    Array.fill t.tags 0 n 0;
    Array.fill t.pays 0 n dummy_pay;
    for i = 0 to n - 1 do
      t.args.(i) <- i + 1
    done;
    t.args.(n - 1) <- -1;
    t.free_head <- 0
  end

(* [wait] and [set_after] with the delay read from a caller-owned
   float cell, and the clock stored into one, so nothing is boxed.
   Defined last: placed next to [wait], [wait_cell] shifted the code
   layout of the dispatch loop and cost blk-hot about 1% host time. *)
let wait_cell cells i =
  let t = engine_of_process () in
  t.fl.(4) <- cells.(i);
  t.performs <- t.performs + 1;
  Effect.perform Wait

let set_after_cell cells i j =
  cells.(i) <- (engine_of_process ()).fl.(0) +. cells.(j)

(* [timer] with the delay read from a caller-owned float cell and
   clamped as the Wait handler clamps it, so a callback that stands in
   for a process's [wait_cell] takes the same key. *)
let timer_cell t cells i fn arg =
  let d = cells.(i) in
  let d = if d < 0.0 then 0.0 else d in
  Array.unsafe_set t.evq.Evq.key_in 0 (Array.unsafe_get t.fl 0 +. d);
  push_timer t fn arg

let stamp t cells i = cells.(i) <- t.fl.(0)
