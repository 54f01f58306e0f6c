open Lab_sim
open Lab_device

type api = Psync | Posix_aio | Libaio | Io_uring

type t = { machine : Machine.t; blk : Blk.t; waiters : Device.waiter_pool }

let all = [ Psync; Posix_aio; Libaio; Io_uring ]

let create machine blk = { machine; blk; waiters = Device.waiter_pool () }

let costs t = t.machine.Machine.costs

let psync_once t ~thread ~kind ~off ~bytes =
  Machine.compute t.machine ~thread (costs t).Costs.syscall_ns;
  Blk.submit_bio_wait t.blk ~thread ~kind ~lba:(off / 4096) ~bytes ~polled:false;
  (* Reschedule after the IRQ woke us. *)
  Machine.compute t.machine ~thread (costs t).Costs.ctx_switch_ns

let submit_wait t ~api ~thread ~kind ~off ~bytes =
  let c = costs t in
  match api with
  | Psync -> psync_once t ~thread ~kind ~off ~bytes
  | Posix_aio ->
      (* Hand-off to the AIO helper thread and back. *)
      Machine.compute t.machine ~thread (c.Costs.wakeup_ns +. c.Costs.ctx_switch_ns);
      psync_once t ~thread ~kind ~off ~bytes;
      Machine.compute t.machine ~thread (c.Costs.wakeup_ns +. c.Costs.ctx_switch_ns)
  | Libaio ->
      (* io_submit … *)
      Machine.compute t.machine ~thread c.Costs.syscall_ns;
      Blk.submit_bio_wait t.blk ~thread ~kind ~lba:(off / 4096) ~bytes ~polled:true;
      (* IRQ fires even though we reap by polling io_getevents. *)
      Machine.compute t.machine ~thread (c.Costs.interrupt_ns +. c.Costs.syscall_ns)
  | Io_uring ->
      Machine.compute t.machine ~thread c.Costs.syscall_ns;
      Blk.submit_bio_wait t.blk ~thread ~kind ~lba:(off / 4096) ~bytes ~polled:true;
      (* Completion read straight from the mapped CQ ring. *)
      Machine.compute t.machine ~thread c.Costs.interrupt_ns

let submit_batch_wait t ~api ~thread ~kind ~offs ~bytes =
  let c = costs t in
  match api with
  | Psync | Posix_aio ->
      Array.iter (fun off -> submit_wait t ~api ~thread ~kind ~off ~bytes) offs
  | Libaio | Io_uring ->
      let n = Array.length offs in
      if n > 0 then begin
        (* One submission syscall covers the whole batch; allocation is
           still per request. *)
        Machine.compute t.machine ~thread
          (c.Costs.syscall_ns +. (Stdlib.float_of_int n *. c.Costs.kalloc_ns));
        (* Scheduler decisions happen in process context, as each
           request is dispatched; the last completion's notify wakes
           the caller. *)
        let all_done = Engine.join n in
        let notify w =
          Blk.note_completion t.blk ~hctx:(Device.waiter_hctx w) ~bytes;
          Device.give_waiter t.waiters w;
          Engine.arrive all_done
        in
        Array.iter
          (fun off ->
            let hctx = Blk.select_hctx t.blk ~thread ~bytes in
            Blk.note_dispatch t.blk ~hctx ~bytes;
            let w = Device.take_waiter t.waiters in
            Device.set_notify w notify;
            Device.submit_waiter (Blk.device t.blk) w ~hctx ~kind
              ~lba:(off / 4096) ~bytes)
          offs;
        Engine.await all_done;
        (* Per-completion reap cost. *)
        let reap =
          match api with
          | Libaio -> c.Costs.interrupt_ns +. c.Costs.syscall_ns
          | Io_uring | Psync | Posix_aio -> c.Costs.interrupt_ns
        in
        Machine.compute t.machine ~thread (Stdlib.float_of_int n *. reap)
      end
