open Lab_sim
open Lab_device

type sched = Noop | Blk_switch

type t = {
  machine : Machine.t;
  dev : Device.t;
  scheduler : sched;
  inflight_reqs : int array;
  inflight_bytes : float array;
  (* The burst or poll staged right before each compute or wait: a
     [Costs.t] field passed as a float would be boxed. *)
  delay : float array;
}

let track_start t q bytes =
  t.inflight_reqs.(q) <- t.inflight_reqs.(q) + 1;
  t.inflight_bytes.(q) <- t.inflight_bytes.(q) +. Stdlib.float_of_int bytes

let track_end t q bytes =
  t.inflight_reqs.(q) <- t.inflight_reqs.(q) - 1;
  t.inflight_bytes.(q) <- t.inflight_bytes.(q) -. Stdlib.float_of_int bytes

let create machine dev ~sched =
  let n = Device.n_hw_queues dev in
  {
    machine;
    dev;
    scheduler = sched;
    inflight_reqs = Array.make n 0;
    inflight_bytes = Array.make n 0.0;
    delay = [| 0.0 |];
  }

let device t = t.dev

let inflight t q = t.inflight_reqs.(q)

(* blk-switch separates latency-critical (small) requests from
   throughput requests: the last quarter of the hardware queues is
   reserved for small I/O, and within each class requests steer to the
   least-loaded queue. The annotation keeps the comparison on unboxed
   floats: inferred polymorphic, each scanned queue would box two
   floats and call [caml_lessthan]. *)
let switch_hctx (inflight_bytes : float array) ~bytes =
  let n = Array.length inflight_bytes in
  let reserved = Stdlib.max 1 (n / 4) in
  let lo, hi =
    if bytes <= 16384 then (n - reserved, n - 1) else (0, n - reserved - 1)
  in
  let lo, hi = if lo > hi then (0, n - 1) else (lo, hi) in
  let best = ref lo in
  for q = lo to hi do
    if inflight_bytes.(q) < inflight_bytes.(!best) then best := q
  done;
  !best

let select_hctx t ~thread ~bytes =
  match t.scheduler with
  | Noop -> thread mod Array.length t.inflight_reqs
  | Blk_switch -> switch_hctx t.inflight_bytes ~bytes

let note_dispatch t ~hctx ~bytes = track_start t hctx bytes

let note_completion t ~hctx ~bytes = track_end t hctx bytes

let submit_bio_wait t ~thread ~kind ~lba ~bytes ~polled =
  let costs = t.machine.Machine.costs in
  (* Request allocation + scheduler bookkeeping. *)
  t.delay.(0) <- costs.Costs.kalloc_ns +. costs.Costs.lock_ns;
  Machine.compute_cell t.machine ~thread t.delay 0;
  let q = select_hctx t ~thread ~bytes in
  track_start t q bytes;
  Device.submit_wait t.dev ~hctx:q ~kind ~lba ~bytes;
  track_end t q bytes;
  if not polled then begin
    (* IRQ handling plus waking and rescheduling the blocked thread. *)
    t.delay.(0) <- costs.Costs.interrupt_ns +. costs.Costs.wakeup_ns;
    Machine.compute_cell t.machine ~thread t.delay 0
  end
  else begin
    (* One poll iteration notices the completion. *)
    t.delay.(0) <- costs.Costs.poll_spin_ns;
    Engine.wait_cell t.delay 0
  end

let submit_io_to_hctx t ~thread ~hctx ~kind ~lba ~bytes w =
  t.delay.(0) <- t.machine.Machine.costs.Costs.kalloc_ns;
  Machine.compute_cell t.machine ~thread t.delay 0;
  let hctx = hctx mod Array.length t.inflight_reqs in
  track_start t hctx bytes;
  Device.submit_waiter t.dev w ~hctx ~kind ~lba ~bytes
