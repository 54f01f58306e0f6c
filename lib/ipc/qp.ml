open Lab_sim

type role = Primary | Intermediate

type ordering = Ordered | Unordered

type mark = Normal | Update_pending | Update_acked

type 'a t = {
  qp_id : int;
  sq : 'a Ring.t;
  cq : 'a Ring.t;
  qp_role : role;
  qp_ordering : ordering;
  mutable qp_mark : mark;
  mutable bells : Waitq.t list;
  (* Readiness listeners: fired on every doorbell ring and mark change,
     synchronously, so a poller can maintain a per-QP readiness bitmap
     instead of scanning idle queues. *)
  mutable ready_fns : (unit -> unit) list;
  cq_waiters : Waitq.t;  (* consumers blocked on an empty CQ *)
  sq_space : Waitq.t;  (* producers blocked on a full SQ *)
  cq_space : Waitq.t;  (* completers blocked on a full CQ *)
  rings : Lab_obs.Metrics.counter;
  sq_stall_count : Lab_obs.Metrics.counter;
  cq_stall_count : Lab_obs.Metrics.counter;
}

(* Counters live in the metrics registry when one is supplied
   ("ipc.qp<N>.doorbell_rings" etc.); otherwise they are detached and
   only readable through the accessors below. *)
let create ?metrics ?(sq_depth = 256) ~role ~ordering ~id () =
  let name k = Printf.sprintf "ipc.qp%d.%s" id k in
  let counter k = Lab_obs.Metrics.counter ?reg:metrics (name k) in
  {
    qp_id = id;
    sq = Ring.create ~capacity:sq_depth;
    cq = Ring.create ~capacity:256;
    qp_role = role;
    qp_ordering = ordering;
    qp_mark = Normal;
    bells = [];
    ready_fns = [];
    cq_waiters = Waitq.create ();
    sq_space = Waitq.create ();
    cq_space = Waitq.create ();
    rings = counter "doorbell_rings";
    sq_stall_count = counter "sq_stalls";
    cq_stall_count = counter "cq_stalls";
  }

let id t = t.qp_id

let role t = t.qp_role

let ordering t = t.qp_ordering

let mark t = t.qp_mark

let notify_ready t = List.iter (fun f -> f ()) t.ready_fns

let set_mark t m =
  t.qp_mark <- m;
  (* Mark transitions need the poller's attention (ack the pending
     update, resume draining after one) even with no new submissions. *)
  notify_ready t

let ring_bell t =
  Lab_obs.Metrics.incr t.rings;
  notify_ready t;
  List.iter (fun w -> ignore (Waitq.wake w)) t.bells

let add_ready_listener t f =
  if not (List.exists (fun f' -> f' == f) t.ready_fns) then
    t.ready_fns <- f :: t.ready_fns

let remove_ready_listener t f =
  t.ready_fns <- List.filter (fun f' -> not (f' == f)) t.ready_fns

let doorbell_rings t = Lab_obs.Metrics.value t.rings

let sq_stalls t = Lab_obs.Metrics.value t.sq_stall_count

(* Producers park on [sq_space] when the submission ring is full and are
   woken one-per-slot as the worker pops entries — no timed busy-retry.
   A woken producer may race another for the freed slot; FIFO park order
   bounds the re-park chain. *)
let sq_park t =
  Lab_obs.Metrics.incr t.sq_stall_count;
  Waitq.park t.sq_space

let try_submit t v =
  let ok = Ring.try_push t.sq v in
  if ok then ring_bell t;
  ok

let rec submit t v =
  if Ring.try_push t.sq v then ring_bell t
  else begin
    sq_park t;
    submit t v
  end

let submit_n t vs n =
  for i = 0 to n - 1 do
    while not (Ring.try_push t.sq vs.(i)) do
      sq_park t
    done
  done;
  (* One coalesced doorbell for the whole batch. *)
  if n > 0 then ring_bell t

let try_completion t =
  match Ring.try_pop t.cq with
  | Some _ as v ->
      ignore (Waitq.wake t.cq_space);
      v
  | None -> None

let completion_or t none =
  let v = Ring.pop_or t.cq none in
  if v != none then ignore (Waitq.wake t.cq_space);
  v

let rec await_completion t =
  match try_completion t with
  | Some v -> v
  | None ->
      Waitq.park t.cq_waiters;
      (* A completer placed our entry (or we raced another waiter; keep
         trying — FIFO park order bounds this). *)
      await_completion t

let wait_completion_event t = Waitq.park t.cq_waiters

let wake_all_waiters t =
  ignore (Waitq.wake_all t.cq_waiters);
  (* Crash notification must also release processes parked on ring
     space, or they would sleep through the restart. *)
  ignore (Waitq.wake_all t.sq_space);
  ignore (Waitq.wake_all t.cq_space)

let poll_sq t =
  match Ring.try_pop t.sq with
  | Some _ as v ->
      ignore (Waitq.wake t.sq_space);
      v
  | None -> None

let poll_sq_into t dst n =
  let got = Ring.pop_into t.sq dst ~off:0 ~max:n in
  for _ = 1 to got do
    ignore (Waitq.wake t.sq_space)
  done;
  got

let peek_sq t = Ring.peek t.sq

let rec complete t v =
  if Ring.try_push t.cq v then ignore (Waitq.wake t.cq_waiters)
  else begin
    Lab_obs.Metrics.incr t.cq_stall_count;
    Waitq.park t.cq_space;
    complete t v
  end

let sq_depth t = Ring.length t.sq

let cq_depth t = Ring.length t.cq

let total_submitted t = Ring.total_pushed t.sq

let set_doorbell t w =
  t.bells <- (match w with None -> [] | Some b -> [ b ])

let add_doorbell t b =
  if not (List.exists (fun b' -> b' == b) t.bells) then t.bells <- b :: t.bells

let remove_doorbell t b = t.bells <- List.filter (fun b' -> not (b' == b)) t.bells

let doorbell t = match t.bells with [] -> None | b :: _ -> Some b
