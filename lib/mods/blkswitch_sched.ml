(* blk-switch I/O scheduler LabMod (after Hwang et al., the paper's §IV
   scheduler case study): steers each request to the hardware queue with
   the least outstanding bytes, so small latency-bound requests are not
   stuck behind large transfers on the same queue (head-of-line
   blocking).

   The scheduler is also the stack's merge point: with a positive
   [merge_window_ns] it holds the first request of a contiguous run
   open for that window, absorbs adjacent same-direction requests bound
   for the same hardware queue, and forwards one merged block op.
   Completions (and torn-write errors) are split back per-request.

   With a QoS table attached (the factory env's [qos]), requests stamped
   with a tenant index additionally pass the multi-tenant dispatch
   stage before steering: latency-class requests (at most the table's
   bypass threshold) go straight through, throughput-class requests
   enter the weighted deficit-round-robin window
   (see {!Lab_ipc.Tenant}), parking on a pooled
   {!Lab_sim.Engine.park_cell} until dispatched. Per-op cost is O(1)
   in registered tenants and allocation-free: a dense-array tenant
   lookup, an intrusive active list, a ring slot, and an unpark. *)

open Lab_sim
open Lab_core
module Metrics = Lab_obs.Metrics
module Tenant = Lab_ipc.Tenant

(* One request that joined an open batch behind its leader. [m_off] is
   its byte offset inside the merged transfer — the torn-write split
   needs it to decide which members fall inside the persisted prefix.
   The follower parks in [m_cell] until the leader has written its
   share of the merged outcome into [m_result]. *)
type member = {
  m_off : int;
  m_bytes : int;
  m_cell : Engine.park_cell;
  mutable m_result : Request.result;
}

(* An open batch accumulating followers while its leader sits out the
   merge window. Members are kept in reverse arrival order. Batches on
   the same hardware queue form an intrusive doubly-linked ring
   through [bt_prev]/[bt_next] around a per-queue sentinel, so opening
   appends and closing unlinks in O(1) — the old [batch list ref] per
   queue cost O(n) to append and O(n) to filter out, O(n^2) across a
   burst of concurrent leaders. [bt_q] is the batch's hardware queue,
   so the merge scan can return the batch alone. A closed batch goes
   back onto the module's free list (singly linked through [bt_next]
   behind the [spare] sentinel) and the next leader reuses it. *)
type batch = {
  mutable bt_q : int;
  mutable bt_kind : Request.io_kind;
  mutable bt_end_lba : int;
  mutable bt_bytes : int;
  mutable bt_members : member list;
  mutable bt_nmembers : int;
  mutable bt_open : bool;
  mutable bt_prev : batch;
  mutable bt_next : batch;
}

(* Pool of park cells for the DRR gate and merge followers:
   acquire/release are array stack ops, so a parked op allocates no
   cell. *)
type cell_pool = {
  mutable cp : Engine.park_cell array;
  mutable cn : int;
}

let cell_acquire p =
  if p.cn = 0 then Engine.make_park_cell ()
  else begin
    p.cn <- p.cn - 1;
    p.cp.(p.cn)
  end

let cell_release p c =
  if p.cn >= Array.length p.cp then begin
    let n = Stdlib.max 8 (2 * Array.length p.cp) in
    let cp = Array.make n c in
    Array.blit p.cp 0 cp 0 p.cn;
    p.cp <- cp
  end;
  p.cp.(p.cn) <- c;
  p.cn <- p.cn + 1

type sched = {
  inflight_bytes : float array;
  merge_window_ns : float;
  open_batches : batch array;
      (** per hardware queue, the sentinel of the ring of batches
          currently holding their merge window open — concurrent
          contiguous runs each plug independently *)
  spare : batch;
      (** sentinel of the free list of closed batches, threaded
          through [bt_next]; [spare.bt_next == spare] when empty *)
  qos : Tenant.t option;
      (** multi-tenant DRR dispatch stage; [None] = QoS off, the
          classic path untouched *)
  hints : int option array;
      (** [Some q] for each hardware queue, built once: stamping a
          request's steered queue allocates nothing *)
  qcells : cell_pool;
  merged_ops : Metrics.counter;  (** merged device ops dispatched *)
  absorbed_reqs : Metrics.counter;
      (** follower requests absorbed into them *)
  hooks : Hooks.t;
      (** merge/join decisions and QoS-gate park/wake report here *)
}

type Labmod.state += State of sched

let name = "blkswitch_sched"

let decision_cost_ns = 400.0

(* Split a merged op's outcome back to one member. Success credits each
   member its own byte count; a torn write succeeds exactly the members
   that fit inside the persisted prefix; anything else fails them all. *)
let member_result merged_result ~off ~bytes =
  match merged_result with
  | Request.Done | Request.Size _ -> Request.Size bytes
  | r -> (
      match Request.torn_persisted_of_result r with
      | Some persisted when off + bytes <= persisted -> Request.Size bytes
      | Some _ | None -> r)

(* A closed batch linked to itself: each queue's ring sentinel and the
   free list's. *)
let closed_batch q =
  let rec s =
    {
      bt_q = q;
      bt_kind = Request.Read;
      bt_end_lba = -1;
      bt_bytes = 0;
      bt_members = [];
      bt_nmembers = 0;
      bt_open = false;
      bt_prev = s;
      bt_next = s;
    }
  in
  s

(* Open a batch for [b] on queue [q] between [prev] and [next]: a
   closed one from the free list behind [spare], or a new one (a copy
   of [spare], one allocation where [closed_batch]'s [let rec] makes
   two), with every field set here. *)
let take_batch spare ~q b ~prev ~next =
  let batch =
    let free = spare.bt_next in
    if free == spare then { spare with bt_q = q }
    else begin
      spare.bt_next <- free.bt_next;
      free
    end
  in
  batch.bt_q <- q;
  batch.bt_kind <- b.Request.b_kind;
  batch.bt_end_lba <- Request.block_end_lba b;
  batch.bt_bytes <- b.Request.b_bytes;
  batch.bt_members <- [];
  batch.bt_nmembers <- 0;
  batch.bt_open <- true;
  batch.bt_prev <- prev;
  batch.bt_next <- next;
  batch

(* Leader path: open a batch on queue [q], sleep through the merge
   window, then forward one op covering everyone who joined and fan the
   outcome back out. With no followers this degenerates to forwarding
   the original request untouched. The batch record is back on the
   free list before the forward: what the fan-out needs is read out of
   it first. *)
let lead ctx st ~q req b =
  let s : batch = st.open_batches.(q) in
  let batch = take_batch st.spare ~q b ~prev:s.bt_prev ~next:s in
  (* Link at the tail: arrival order, like the old append. *)
  s.bt_prev.bt_next <- batch;
  s.bt_prev <- batch;
  Engine.wait st.merge_window_ns;
  batch.bt_open <- false;
  batch.bt_prev.bt_next <- batch.bt_next;
  batch.bt_next.bt_prev <- batch.bt_prev;
  let members = batch.bt_members in
  let nmembers = batch.bt_nmembers in
  let merged_bytes = batch.bt_bytes in
  batch.bt_next <- st.spare.bt_next;
  st.spare.bt_next <- batch;
  match List.rev members with
  | [] -> ctx.Labmod.forward req
  | followers ->
      Metrics.incr st.merged_ops;
      Metrics.incr ~by:nmembers st.absorbed_reqs;
      Hooks.sched_merge st.hooks ctx req ~absorbed:nmembers;
      let merged =
        Request.make ~id:req.Request.id ~pid:req.Request.pid
          ~uid:req.Request.uid ~thread:req.Request.thread
          ~stack_id:req.Request.stack_id
          ~now:(Machine.now ctx.Labmod.machine)
          (Request.Block
             {
               Request.b_kind = b.Request.b_kind;
               b_lba = b.Request.b_lba;
               b_bytes = merged_bytes;
               b_sync = false;
             })
      in
      merged.Request.hint_hctx <- st.hints.(q);
      let merged_result = ctx.Labmod.forward merged in
      List.iter
        (fun m ->
          m.m_result <- member_result merged_result ~off:m.m_off ~bytes:m.m_bytes;
          Engine.unpark m.m_cell)
        followers;
      member_result merged_result ~off:0 ~bytes:b.Request.b_bytes

(* Follower path: append to the leader's open batch and park until the
   leader fans out our share of the merged completion. *)
let join qcells batch b =
  let m =
    {
      m_off = batch.bt_bytes;
      m_bytes = b.Request.b_bytes;
      m_cell = cell_acquire qcells;
      m_result = Request.Done;
    }
  in
  batch.bt_end_lba <- Request.block_end_lba b;
  batch.bt_bytes <- batch.bt_bytes + b.Request.b_bytes;
  batch.bt_nmembers <- batch.bt_nmembers + 1;
  batch.bt_members <- m :: batch.bt_members;
  Engine.park m.m_cell;
  cell_release qcells m.m_cell;
  m.m_result

(* A merged op's limits: one full device command, and at most 64
   requests. *)
let max_merge_bytes = 262144

let max_merge_reqs = 64

(* The open batch [b] extends: one that ends exactly at [b]'s LBA, in
   [b]'s direction, with room for it. The scan walks queues in
   ascending order and each queue's batches in arrival order, so the
   first hit is the lowest-queue earliest-opened candidate. With none,
   the result is queue 0's sentinel, which is never open. *)
let find_batch open_batches b =
  let n = Array.length open_batches in
  let found = ref open_batches.(0) in
  let q = ref 0 in
  while (not !found.bt_open) && !q < n do
    let s = open_batches.(!q) in
    let cur = ref s.bt_next in
    while (not !found.bt_open) && !cur != s do
      let batch = !cur in
      if
        batch.bt_open
        && batch.bt_kind = b.Request.b_kind
        && b.Request.b_lba = batch.bt_end_lba
        && batch.bt_bytes + b.Request.b_bytes <= max_merge_bytes
        && batch.bt_nmembers + 2 <= max_merge_reqs
      then found := batch
      else cur := batch.bt_next
    done;
    incr q
  done;
  !found

(* Charge [bytes] to queue [q] and stamp [q] on the request. *)
let take_queue inflight_bytes hints req ~bytes q =
  req.Request.hint_hctx <- hints.(q);
  inflight_bytes.(q) <- inflight_bytes.(q) +. Stdlib.float_of_int bytes

(* Honour a pre-set hint (degraded-mode requeue away from an offline
   queue); otherwise steer least-loaded as usual. *)
let steer inflight_bytes hints req ~bytes =
  let q =
    match req.Request.hint_hctx with
    | Some h -> h mod Array.length inflight_bytes
    | None -> Lab_kernel.Blk.switch_hctx inflight_bytes ~bytes
  in
  take_queue inflight_bytes hints req ~bytes q;
  q

let finish st ~gated_bytes ~bytes q result =
  st.inflight_bytes.(q) <- st.inflight_bytes.(q) -. Stdlib.float_of_int bytes;
  (if gated_bytes >= 0 then
     match st.qos with
     | Some table -> Tenant.release table ~bytes:gated_bytes
     | None -> ());
  result

let operate m ctx req =
  match m.Labmod.state with
  | State st -> (
      let bytes = Request.bytes_of req in
      (* Multi-tenant dispatch gate, ahead of the decision cost: a
         throughput-class op may only proceed while the DRR window has
         room; its turn within the window is deficit-round-robin by
         tenant weight. [-1] = not windowed (no tenant, QoS off, or
         latency class) — those pay nothing here. *)
      let gated_bytes =
        match st.qos with
        | Some table when req.Request.tenant >= 0 ->
            let tn = Tenant.get table req.Request.tenant in
            if Tenant.windowed ~bytes then begin
              let cell = cell_acquire st.qcells in
              if not (Tenant.submit table tn ~bytes cell) then begin
                Hooks.park st.hooks ~id:req.Request.id ~tag:"qos_gate";
                Engine.park cell;
                Hooks.wake st.hooks ~id:req.Request.id ~arg:0 ~tag:"qos_gate"
              end;
              cell_release st.qcells cell;
              bytes
            end
            else -1
        | _ -> -1
      in
      Machine.compute ctx.Labmod.machine ~thread:ctx.Labmod.thread decision_cost_ns;
      (* Plug merge, before any steering: a batch that ends exactly at
         our LBA absorbs us on whatever queue it already holds —
         contiguity beats load balance. Requests carrying a degraded-
         mode requeue hint never join (they were steered away from an
         offline queue on purpose). *)
      match req.Request.payload with
      | Request.Block b when st.merge_window_ns > 0.0 && not b.Request.b_sync ->
          let batch =
            if req.Request.hint_hctx <> None then st.open_batches.(0)
            else find_batch st.open_batches b
          in
          if batch.bt_open then begin
            let q = batch.bt_q in
            take_queue st.inflight_bytes st.hints req ~bytes q;
            Hooks.sched_join st.hooks ctx req;
            finish st ~gated_bytes ~bytes q (join st.qcells batch b)
          end
          else begin
            let q = steer st.inflight_bytes st.hints req ~bytes in
            finish st ~gated_bytes ~bytes q (lead ctx st ~q req b)
          end
      | _ ->
          let q = steer st.inflight_bytes st.hints req ~bytes in
          finish st ~gated_bytes ~bytes q (ctx.Labmod.forward req))
  | _ -> Request.Failed "blkswitch_sched: bad state"

let merged_ops (m : Labmod.t) =
  match m.Labmod.state with
  | State st -> Metrics.value st.merged_ops
  | _ -> 0

let absorbed_reqs (m : Labmod.t) =
  match m.Labmod.state with
  | State st -> Metrics.value st.absorbed_reqs
  | _ -> 0

let attr_table = [ Registry.float_attr "merge_window_ns" (fun _ ns -> ns) ]

let factory ?(env = Mod_util.detached) ~nqueues () : Registry.factory =
 fun ~uuid ~attrs ->
  let env = Mod_util.for_instance env ~uuid in
  let merge_window_ns = Registry.decode_attrs ~mod_name:name attr_table 0.0 attrs in
  Labmod.make ~name ~uuid ~mod_type:Labmod.Scheduler
    ~state:
      (State
         {
           inflight_bytes = Array.make nqueues 0.0;
           merge_window_ns;
           open_batches = Array.init nqueues closed_batch;
           spare = closed_batch 0;
           qos = env.Mod_util.qos;
           hints = Array.init nqueues Option.some;
           qcells = { cp = [||]; cn = 0 };
           merged_ops =
             Metrics.counter ?reg:env.Mod_util.metrics
               (Printf.sprintf "mod.%s.merged_ops" uuid);
           absorbed_reqs =
             Metrics.counter ?reg:env.Mod_util.metrics
               (Printf.sprintf "mod.%s.absorbed_reqs" uuid);
           hooks = env.Mod_util.hooks;
         })
    {
      Labmod.operate;
      est_processing_time = (fun _ _ -> decision_cost_ns);
      state_update = Mod_util.identity_state;
      state_repair = Mod_util.no_repair;
    }
