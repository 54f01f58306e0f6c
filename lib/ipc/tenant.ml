(* Multi-tenant QoS: per-tenant admission control plus a weighted
   deficit-round-robin dispatch stage, built so per-op cost is O(1) in
   the number of registered tenants.

   Tenants live in a dense array indexed by a small integer (the index
   rides on each request), so the scheduler's lookup is one array read
   — no Hashtbl on the hot path. The DRR stage keeps only *backlogged*
   tenants on an intrusive singly-linked active list (int links inside
   the tenant records, head/tail in the table), so dispatch never
   scans idle tenants: 4096 mostly-idle tenants cost the same as 16.
   Queued ops are (bytes, park_cell) pairs in a per-tenant power-of-two
   ring; dispatching one is a ring pop plus {!Lab_sim.Engine.unpark} —
   no closure, list cell, or option allocated per op.

   Two service classes, mirroring blk-switch's L-app/T-app split (and
   the device's urgent-transfer arbitration): ops of at most
   [bypass_bytes] are latency-class and skip the dispatch window
   entirely; larger ops are throughput-class and pass the DRR stage,
   which releases them into the downstream stack only while the total
   outstanding throughput-class bytes stay under [window_bytes]. The
   window is what bounds a misbehaving bulk tenant's in-device
   footprint; DRR shares that window by weight among backlogged
   tenants.

   Admission control is the client-side half: a per-tenant token
   bucket ([rate_mbps], [burst_bytes]) plus an outstanding-op cap
   ([qcap]); over-rate or over-cap submissions are refused (the client
   maps this to EAGAIN and its normal retry/backoff). *)

(* DRR replenishment per visit per unit weight. *)
let quantum_bytes = 65536

(* Cap on outstanding throughput-class bytes across all tenants. *)
let window_bytes = 131072

(* Latency-class cutoff: the device's urgent-transfer threshold. *)
let bypass_bytes = 16384

type tenant = {
  idx : int;  (* dense table index; rides on requests *)
  ext_id : int;  (* external identity (client uid) *)
  weight : int;
  rate_bytes_per_ns : float;  (* 0. = uncapped *)
  burst_bytes : float;
  qcap : int;  (* max admitted-and-uncompleted ops *)
  (* token bucket *)
  mutable tokens : float;
  mutable refilled_at : float;
  (* admission-side accounting *)
  mutable queued : int;  (* admitted ops not yet completed *)
  mutable throttled : int;  (* admission refusals *)
  mutable ops_done : int;
  mutable bytes_done : int;
  (* DRR state. The deficit counts bytes, so it lives in an int: a
     mutable float field in this mixed record would be boxed, and the
     serve/replenish stores would put two fresh words on the minor heap
     per dispatched op — busting the allocation budget. *)
  mutable deficit : int;
  mutable active : bool;
  mutable anext : int;  (* active-list link; -1 = end *)
  mutable dispatched : int;  (* ops through the DRR window *)
  mutable served_bytes : int;  (* throughput-class bytes dispatched *)
  (* pending throughput-class ops: parallel power-of-two rings *)
  mutable pb : int array;  (* bytes *)
  mutable pc : Lab_sim.Engine.park_cell array;
  mutable phead : int;
  mutable plen : int;
  lat : Lab_obs.Hist.t;  (* end-to-end op latency, ns *)
}

type t = {
  mutable tenants : tenant array;
  mutable n : int;
  by_ext : (int, int) Hashtbl.t;  (* ext_id -> idx; registration only *)
  mutable ahead : int;  (* active (backlogged) list, -1 = empty *)
  mutable atail : int;
  mutable backlog : int;  (* queued throughput-class ops, all tenants *)
  mutable inflight_bytes : int;  (* dispatched, not yet released *)
}

let create () =
  {
    tenants = [||];
    n = 0;
    by_ext = Hashtbl.create 64;
    ahead = -1;
    atail = -1;
    backlog = 0;
    inflight_bytes = 0;
  }

let dummy_cell = Lab_sim.Engine.make_park_cell ()

let register t ~ext_id ~weight ~rate_mbps ~burst_bytes ~qcap =
  if Hashtbl.mem t.by_ext ext_id then
    invalid_arg (Printf.sprintf "Tenant.register: tenant %d exists" ext_id);
  let idx = t.n in
  if idx >= Array.length t.tenants then begin
    let cap = Stdlib.max 16 (2 * Array.length t.tenants) in
    let grown = Array.make cap (Obj.magic 0 : tenant) in
    Array.blit t.tenants 0 grown 0 t.n;
    t.tenants <- grown
  end;
  let tn =
    {
      idx;
      ext_id;
      weight = Stdlib.max 1 weight;
      rate_bytes_per_ns = (if rate_mbps <= 0.0 then 0.0 else rate_mbps /. 1000.0);
      burst_bytes = Stdlib.float_of_int (Stdlib.max 1 burst_bytes);
      qcap = Stdlib.max 1 qcap;
      tokens = Stdlib.float_of_int (Stdlib.max 1 burst_bytes);
      refilled_at = 0.0;
      queued = 0;
      throttled = 0;
      ops_done = 0;
      bytes_done = 0;
      deficit = 0;
      active = false;
      anext = -1;
      dispatched = 0;
      served_bytes = 0;
      pb = Array.make 8 0;
      pc = Array.make 8 dummy_cell;
      phead = 0;
      plen = 0;
      lat = Lab_obs.Hist.create ();
    }
  in
  t.tenants.(idx) <- tn;
  t.n <- idx + 1;
  Hashtbl.add t.by_ext ext_id idx;
  tn

let n_tenants t = t.n

let get t idx = t.tenants.(idx)

let find t ~ext_id =
  match Hashtbl.find_opt t.by_ext ext_id with
  | Some idx -> Some t.tenants.(idx)
  | None -> None

let idx tn = tn.idx

let ext_id tn = tn.ext_id

let weight tn = tn.weight

let deficit tn = Stdlib.float_of_int tn.deficit

let throttled tn = tn.throttled

let queued tn = tn.queued

let ops_done tn = tn.ops_done

let bytes_done tn = tn.bytes_done

let dispatched tn = tn.dispatched

let served_bytes tn = tn.served_bytes

let latency tn = tn.lat

let backlog t = t.backlog

let inflight_bytes t = t.inflight_bytes

(* ---------------- admission (client side) ---------------- *)

let admit t tn ~bytes ~now =
  ignore t;
  if tn.queued >= tn.qcap then begin
    tn.throttled <- tn.throttled + 1;
    false
  end
  else if tn.rate_bytes_per_ns > 0.0 then begin
    let dt = now -. tn.refilled_at in
    if dt > 0.0 then begin
      tn.refilled_at <- now;
      let filled = tn.tokens +. (dt *. tn.rate_bytes_per_ns) in
      tn.tokens <- (if filled > tn.burst_bytes then tn.burst_bytes else filled)
    end;
    (* An op larger than the burst cannot wait for tokens the bucket
       never holds: a full bucket admits it and goes into debt, which
       later refills repay, so the long-run rate still holds. *)
    let b = Stdlib.float_of_int bytes in
    if tn.tokens >= Float.min b tn.burst_bytes then begin
      tn.tokens <- tn.tokens -. b;
      tn.queued <- tn.queued + 1;
      true
    end
    else begin
      tn.throttled <- tn.throttled + 1;
      false
    end
  end
  else begin
    tn.queued <- tn.queued + 1;
    true
  end

let complete t tn ~bytes ~latency_ns ~ok =
  ignore t;
  if tn.queued > 0 then tn.queued <- tn.queued - 1;
  Lab_obs.Hist.observe tn.lat latency_ns;
  if ok then begin
    tn.ops_done <- tn.ops_done + 1;
    tn.bytes_done <- tn.bytes_done + bytes
  end

(* ---------------- DRR dispatch (scheduler side) ---------------- *)

let windowed ~bytes = bytes > bypass_bytes

(* Intrusive active list: only backlogged tenants are linked. *)

let[@inline] activate t tn =
  if not tn.active then begin
    tn.active <- true;
    tn.anext <- -1;
    if t.atail < 0 then t.ahead <- tn.idx
    else t.tenants.(t.atail).anext <- tn.idx;
    t.atail <- tn.idx
  end

let[@inline] deactivate_head t tn =
  t.ahead <- tn.anext;
  if t.ahead < 0 then t.atail <- -1;
  tn.active <- false;
  tn.anext <- -1;
  tn.deficit <- 0

let[@inline] rotate t =
  let h = t.ahead in
  let tn = t.tenants.(h) in
  if tn.anext >= 0 then begin
    t.ahead <- tn.anext;
    tn.anext <- -1;
    t.tenants.(t.atail).anext <- h;
    t.atail <- h
  end

let[@inline never] ring_grow tn =
  let cap = Array.length tn.pb in
  let ncap = 2 * cap in
  let pb = Array.make ncap 0 in
  let pc = Array.make ncap dummy_cell in
  for i = 0 to tn.plen - 1 do
    let j = (tn.phead + i) land (cap - 1) in
    pb.(i) <- tn.pb.(j);
    pc.(i) <- tn.pc.(j)
  done;
  tn.pb <- pb;
  tn.pc <- pc;
  tn.phead <- 0

let[@inline] ring_push tn ~bytes cell =
  if tn.plen = Array.length tn.pb then ring_grow tn;
  let i = (tn.phead + tn.plen) land (Array.length tn.pb - 1) in
  Array.unsafe_set tn.pb i bytes;
  Array.unsafe_set tn.pc i cell;
  tn.plen <- tn.plen + 1

(* Serve the head tenant while its deficit covers its head op; when it
   cannot, replenish by quantum x weight and rotate. O(1) amortized per
   dispatched op as long as quantum covers typical op sizes; bounded
   regardless because each replenish strictly grows the head's deficit.
   Every dispatch is a ring pop + unpark: nothing allocated. *)
let rec drain t =
  if t.backlog > 0 && t.inflight_bytes < window_bytes then begin
    let tn = t.tenants.(t.ahead) in
    let b = Array.unsafe_get tn.pb tn.phead in
    if tn.deficit >= b then begin
      let cell = Array.unsafe_get tn.pc tn.phead in
      Array.unsafe_set tn.pc tn.phead dummy_cell;
      tn.phead <- (tn.phead + 1) land (Array.length tn.pb - 1);
      tn.plen <- tn.plen - 1;
      tn.deficit <- tn.deficit - b;
      tn.dispatched <- tn.dispatched + 1;
      tn.served_bytes <- tn.served_bytes + b;
      t.backlog <- t.backlog - 1;
      t.inflight_bytes <- t.inflight_bytes + b;
      if tn.plen = 0 then deactivate_head t tn;
      Lab_sim.Engine.unpark cell;
      drain t
    end
    else begin
      tn.deficit <- tn.deficit + (quantum_bytes * tn.weight);
      rotate t;
      drain t
    end
  end

(* Returns true when the op may proceed immediately (idle stage with
   window room: it is accounted in-flight and the caller must NOT
   park). Returns false when the op was queued: the caller must park on
   [cell]; the DRR stage unparks it when its turn comes. The caller
   parks immediately after — same coroutine, no intervening yield — so
   the unpark cannot arrive before the park. *)
let submit t tn ~bytes cell =
  if t.backlog = 0 && t.inflight_bytes < window_bytes then begin
    t.inflight_bytes <- t.inflight_bytes + bytes;
    tn.dispatched <- tn.dispatched + 1;
    tn.served_bytes <- tn.served_bytes + bytes;
    true
  end
  else begin
    ring_push tn ~bytes cell;
    t.backlog <- t.backlog + 1;
    activate t tn;
    false
  end

let release t ~bytes =
  t.inflight_bytes <- t.inflight_bytes - bytes;
  if t.backlog > 0 then drain t
