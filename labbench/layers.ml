(* Per-layer measurements: counter snapshots around a measured phase,
   span analysis of a traced phase, and component runs that call one
   layer's public functions in isolation.

   Component runs are timed from outside a simulated process: timing a
   call made inside a full stack would bill the work of every other
   coroutine that runs while the call is suspended. *)

open Labstor
open Lab_sim
module Metrics = Obs.Metrics
module Trace = Obs.Trace
module Request = Core.Request

(* ---- counters ---------------------------------------------------- *)

(* Every counter the ledger reads, as (name, value); diffed around the
   measured phase. *)
let snapshot p =
  let sum_suffix prefix suffix =
    List.fold_left
      (fun acc (n, v) ->
        if
          String.starts_with ~prefix n
          && String.ends_with ~suffix n
        then
          match v with
          | Metrics.V_counter c -> acc +. float_of_int c
          | Metrics.V_gauge g -> acc +. g
          | Metrics.V_histogram _ -> acc
        else acc)
      0.0
      (Metrics.to_list (Platform.metrics p))
  in
  let dev = Platform.device p Device.Profile.Nvme in
  let svc = Device.Device.service_stats dev in
  let reg = Runtime.Runtime.registry (Platform.runtime p) in
  let find uuid = Core.Registry.find reg uuid in
  let cache =
    match Option.bind (find "cache0") Mods.Lru_cache.core with
    | Some c ->
        Mods.Cache_core.
          [
            ("cache.hits", hits c);
            ("cache.misses", misses c);
            ("cache.flush_ops", flush_ops c);
            ("cache.flush_pages", flush_pages c);
          ]
    | None -> []
  in
  let sched =
    match find "sched0" with
    | Some m -> [ ("sched.merged_ops", Mods.Blkswitch_sched.merged_ops m) ]
    | None -> []
  in
  let fs =
    match find "fs0" with
    | Some m -> [ ("labfs.log_records", List.length (Mods.Labfs.log_of m)) ]
    | None -> []
  in
  List.map (fun (n, v) -> (n, float_of_int v)) (cache @ sched @ fs)
  @ [
      ("ipc.doorbells", sum_suffix "ipc.qp" ".doorbell_rings");
      ("ipc.sq_stalls", sum_suffix "ipc.qp" ".sq_stalls");
      ("ipc.cq_stalls", sum_suffix "ipc.qp" ".cq_stalls");
      ("client.retries", sum_suffix "client.pid" ".retries");
      ( "device.cmds",
        float_of_int
          (Device.Device.completed_reads dev + Device.Device.completed_writes dev)
      );
      ("device.bytes_read", float_of_int (Device.Device.bytes_read dev));
      ("device.bytes_written", float_of_int (Device.Device.bytes_written dev));
      ("device.svc_count", float_of_int (Stats.count svc));
      ("device.svc_sum", Stats.sum svc);
    ]

let get snap n = Option.value (List.assoc_opt n snap) ~default:0.0

let delta ~before ~after n = get after n -. get before n

let ratio a b = if b > 0.0 then a /. b else 0.0

(* ---- spans ------------------------------------------------------- *)

type spans = {
  requests : int;  (** traced requests with a root span *)
  events : int;  (** emitted trace events *)
  stage_mean : string -> float;  (** mean stage duration, ns *)
  queue_wait_p999 : float;
  mod_self : string -> float;  (** exclusive virtual ns per traced request *)
  max_tile_residual : float;  (** worst |root - sum(stages)| / root *)
  exclusive_residual : float;
      (** |module_stack total - sum of self time beneath it| / total *)
  min_self : float;
}

let mod_names = [ "labfs"; "lru_cache"; "blkswitch_sched"; "kernel_driver" ]

let last_segment key =
  match String.rindex_opt key ';' with
  | Some i -> String.sub key (i + 1) (String.length key - i - 1)
  | None -> key

let analyse (evs : Trace.ev list) =
  let roots = Hashtbl.create 4096 and stage_sum = Hashtbl.create 4096 in
  let stages = Hashtbl.create 8 in
  let qwait = ref [] in
  List.iter
    (fun (e : Trace.ev) ->
      if e.Trace.ev_ph = 'X' then
        match e.Trace.ev_cat with
        | "request" -> Hashtbl.replace roots e.Trace.ev_id e.Trace.ev_dur
        | "stage" ->
            let prev =
              Option.value (Hashtbl.find_opt stage_sum e.Trace.ev_id)
                ~default:0.0
            in
            Hashtbl.replace stage_sum e.Trace.ev_id (prev +. e.Trace.ev_dur);
            let n, s =
              Option.value (Hashtbl.find_opt stages e.Trace.ev_name)
                ~default:(0, 0.0)
            in
            Hashtbl.replace stages e.Trace.ev_name (n + 1, s +. e.Trace.ev_dur);
            if e.Trace.ev_name = "queue_wait" then
              qwait := e.Trace.ev_dur :: !qwait
        | _ -> ())
    evs;
  let max_tile = ref 0.0 in
  Hashtbl.iter
    (fun id root ->
      let s = Option.value (Hashtbl.find_opt stage_sum id) ~default:0.0 in
      if root > 0.0 then
        max_tile := Float.max !max_tile (Float.abs (root -. s) /. root))
    roots;
  let requests = Hashtbl.length roots in
  let per_req x = if requests > 0 then x /. float_of_int requests else 0.0 in
  (* Exclusive (self) time per stack path, from the library's span
     profile: a span's duration minus its direct children's. *)
  let prof = Obs.Profile.of_events evs in
  let nodes = prof.Obs.Profile.nodes in
  let sum_nodes f sel =
    List.fold_left (fun acc n -> if sel n then acc +. f n else acc) 0.0 nodes
  in
  let named m n = last_segment n.Obs.Profile.pf_key = m in
  let under_stack n =
    let k = n.Obs.Profile.pf_key in
    k = "request;module_stack"
    || String.starts_with ~prefix:"request;module_stack;" k
  in
  let stack_total =
    sum_nodes (fun n -> n.Obs.Profile.pf_total_ns) (fun n ->
        n.Obs.Profile.pf_key = "request;module_stack")
  in
  let stack_self = sum_nodes (fun n -> n.Obs.Profile.pf_self_ns) under_stack in
  let qw = Array.of_list !qwait in
  Array.sort Float.compare qw;
  {
    requests;
    events = List.length evs;
    stage_mean =
      (fun s ->
        match Hashtbl.find_opt stages s with
        | Some (n, t) when n > 0 -> t /. float_of_int n
        | _ -> 0.0);
    queue_wait_p999 = Wl.pct qw 0.999;
    mod_self =
      (fun m -> per_req (sum_nodes (fun n -> n.Obs.Profile.pf_self_ns) (named m)));
    max_tile_residual = !max_tile;
    exclusive_residual =
      (if stack_total > 0.0 then
         Float.abs (stack_total -. stack_self) /. stack_total
       else 1.0);
    min_self =
      List.fold_left (fun acc n -> Float.min acc n.Obs.Profile.pf_self_ns)
        0.0 nodes;
  }

(* ---- component runs ---------------------------------------------- *)

type cost = { ns : float; words : float }

let quantile l q =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  Wl.pct a q

let median l = quantile l 0.5

let sub a b = { ns = a.ns -. b.ns; words = a.words -. b.words }

(* Per-unit cost of one batch; [batch ()] returns its unit count. *)
let timed batch =
  let w0 = Gc.minor_words () in
  let c0 = Sys.time () in
  let units = float_of_int (batch ()) in
  let c = Sys.time () -. c0 in
  { ns = c *. 1e9 /. units; words = (Gc.minor_words () -. w0) /. units }

(* After one untimed warm-up, batches repeat until [budget_s] of CPU
   time is spent (at least three). With [base], every batch is paired
   with a batch of [base] and the per-unit difference is kept. Each
   sample is read at the reference speed of a [Calib] run made right
   after it, like the end-to-end host time. ns is the median over
   batches; words come from the last batch (they repeat exactly once
   warm). *)
let bench ~budget_s ?base batch =
  let sample () =
    let a = timed batch in
    let c = match base with Some b -> sub a (timed b) | None -> a in
    { c with ns = c.ns *. Calib.scale (Calib.timed ()).Calib.ref_s }
  in
  ignore (sample ());
  let samples = ref [] and n = ref 0 in
  let stop = Sys.time () +. budget_s in
  while !n < 3 || Sys.time () < stop do
    samples := sample () :: !samples;
    incr n
  done;
  { ns = quantile (List.map (fun c -> c.ns) !samples) 0.5;
    words = (List.hd !samples).words }

(* Engine timer loop: 256 self-rescheduling timers on the pooled path. *)
let engine_timer () =
  let e = Engine.create () in
  let remaining = ref 0 in
  let rec fire slot =
    if !remaining > 0 then begin
      decr remaining;
      Engine.timer e ~ns:(100 + (slot * 37 mod 1400)) fire slot
    end
  in
  fun () ->
    let e0 = Engine.events_executed e in
    remaining := 200_000;
    for i = 0 to 255 do
      Engine.timer e ~ns:(100 + i) fire i
    done;
    Engine.run e;
    Engine.events_executed e - e0

(* Park/unpark through a reusable park cell, woken by a timer. *)
let park_cycle () =
  let e = Engine.create () in
  let cell = Engine.make_park_cell () in
  let wake _ = Engine.unpark cell in
  let cycles = 50_000 in
  fun () ->
    Engine.spawn e (fun () ->
        for _ = 1 to cycles do
          Engine.timer e ~ns:10 wake 0;
          Engine.park cell
        done);
    Engine.run e;
    cycles

let dummy_request payload =
  Request.make ~id:1 ~pid:1 ~uid:0 ~thread:0 ~stack_id:0 ~now:0.0 payload

(* One queue-pair round trip: client submit, worker poll, worker
   complete, client reap. *)
let qp_roundtrip () =
  let e = Engine.create () in
  let qp = Ipc.Qp.create ~role:Ipc.Qp.Primary ~ordering:Ipc.Qp.Ordered ~id:0 () in
  let req = dummy_request (Request.Control 0) in
  let n = 50_000 in
  fun () ->
    Engine.spawn e (fun () ->
        for _ = 1 to n do
          Ipc.Qp.submit qp req;
          (match Ipc.Qp.poll_sq qp with
          | Some r -> Ipc.Qp.complete qp r
          | None -> failwith "qp: empty submission ring");
          match Ipc.Qp.try_completion qp with
          | Some _ -> ()
          | None -> failwith "qp: empty completion ring"
        done);
    Engine.run e;
    n

(* Exec.run over a chain of pass-through vertices ending in a
   zero-cost dummy_mod; the per-hop cost is the slope between chain
   lengths. *)
let passthrough : Core.Registry.factory =
 fun ~uuid ~attrs:_ ->
  Core.Labmod.make ~name:"passthrough" ~uuid ~mod_type:Core.Labmod.Generic
    {
      Core.Labmod.operate = (fun _ ctx req -> ctx.Core.Labmod.forward req);
      est_processing_time = Core.Labmod.default_est;
      state_update = Fun.id;
      state_repair = ignore;
    }

let exec_chain ~hops () =
  let m = Machine.create ~ncores:4 () in
  let registry = Core.Registry.create () in
  Core.Registry.register_factory registry ~name:"passthrough" passthrough;
  Core.Registry.register_factory registry ~name:"dummy"
    (Mods.Dummy_mod.factory ~op_ns:0.0 ());
  let vertex i =
    let last = i = hops - 1 in
    {
      Core.Stack_spec.uuid = Printf.sprintf "v%d" i;
      mod_name = (if last then "dummy" else "passthrough");
      attrs = [];
      outputs = (if last then [] else [ Printf.sprintf "v%d" (i + 1) ]);
    }
  in
  let dag = List.init hops vertex in
  List.iter
    (fun (v : Core.Stack_spec.vertex) ->
      match
        Core.Registry.instantiate registry ~mod_name:v.Core.Stack_spec.mod_name
          ~uuid:v.Core.Stack_spec.uuid ~attrs:[]
      with
      | Ok _ -> ()
      | Error e -> failwith e)
    dag;
  let spec =
    { Core.Stack_spec.mount = "ctl::/hops"; rules = Core.Stack_spec.default_rules; dag }
  in
  let stack =
    { Core.Stack.id = 0; mount = "ctl::/hops"; spec; exec_mode = Core.Stack_spec.Sync }
  in
  let req = dummy_request (Request.Control 0) in
  let n = 20_000 in
  fun () ->
    Machine.spawn m (fun () ->
        for _ = 1 to n do
          match Runtime.Exec.run m ~registry ~stack ~thread:0 req with
          | Request.Done -> ()
          | r -> failwith (Format.asprintf "exec: %a" Request.pp_result r)
        done);
    Machine.run m;
    n

let exec_hops = 8

(* ---- recorded traffic -------------------------------------------- *)

(* The block requests one module instance received, oldest first. *)
type inputs = Request.block_op array

(* What one module instance received: every request counted, block
   requests kept in order. *)
type received = { calls : int; blocks : inputs }

(* Wraps each named module instance of the mounted stack so that every
   request it receives is logged before the module handles it. Exec
   looks modules up by uuid on every hop, so the wrapper sees
   everything: client requests, cache misses and write-backs, LabFS log
   commits, merged scheduler ops. Logging is host-side only and leaves
   the simulated schedule unchanged. Returns a reader of the logs. *)
let record_inputs p uuids =
  let reg = Runtime.Runtime.registry (Platform.runtime p) in
  let logs =
    List.filter_map
      (fun uuid ->
        match Core.Registry.find reg uuid with
        | None -> None
        | Some m ->
            let calls = ref 0 and blocks = ref [] in
            let inner = m.Core.Labmod.ops.Core.Labmod.operate in
            let operate t ctx (req : Request.t) =
              incr calls;
              (match req.Request.payload with
              | Request.Block b -> blocks := b :: !blocks
              | _ -> ());
              inner t ctx req
            in
            Core.Registry.replace reg
              { m with Core.Labmod.ops = { m.Core.Labmod.ops with operate } };
            Some (uuid, (calls, blocks)))
      uuids
  in
  fun uuid ->
    match List.assoc_opt uuid logs with
    | Some (calls, blocks) ->
        { calls = !calls; blocks = Array.of_list (List.rev !blocks) }
    | None -> { calls = 0; blocks = [||] }

(* Cycles through recorded inputs. *)
let cycle (a : inputs) =
  let i = ref 0 in
  fun () ->
    let b = a.(!i) in
    i := (!i + 1) mod Array.length a;
    b

(* Device.submit_wait over the commands the driver received. *)
let device_cmds (inputs : inputs) () =
  let e = Engine.create () in
  let dev = Device.Device.create e Device.Profile.nvme in
  let next = cycle inputs in
  let n = 20_000 in
  fun () ->
    Engine.spawn e (fun () ->
        for i = 1 to n do
          let b = next () in
          let kind =
            match b.Request.b_kind with
            | Request.Read -> Device.Device.Read
            | Request.Write -> Device.Device.Write
          in
          ignore
            (Device.Device.submit_wait dev ~hctx:(i land 7) ~kind
               ~lba:b.Request.b_lba ~bytes:b.Request.b_bytes)
        done);
    Engine.run e;
    (* The device keeps every service time; drop them so the
       component does not grow the heap. *)
    Device.Device.reset_stats dev;
    n

(* Mod_harness over a request stream, minus a dummy_mod baseline (the
   harness's own process spawn and request build). [warm] requests go
   through untimed first. The harness keeps what the module forwards;
   it is cleared after every batch so it does not grow the heap. *)
let harness ?(setup = fun _ -> ()) ?(after = ignore) ?(warm = 0) make payload () =
  let h = Runtime.Mod_harness.create make in
  setup h;
  for i = 1 to warm do
    ignore (Runtime.Mod_harness.run h (payload ()));
    if i mod 5_000 = 0 then Runtime.Mod_harness.clear_forwarded h
  done;
  Runtime.Mod_harness.clear_forwarded h;
  let n = 5_000 in
  fun () ->
    for _ = 1 to n do
      ignore (Runtime.Mod_harness.run h (payload ()))
    done;
    Runtime.Mod_harness.clear_forwarded h;
    after ();
    n

let with_attrs factory attrs : Machine.t -> Core.Registry.factory =
 fun _m ~uuid ~attrs:_ -> factory ~uuid ~attrs

(* The fs-mixed POSIX mix over 32 files, after creating and sizing
   them through the harness. *)
let labfs_component ~seed () =
  let nfiles = Wl.threads * Wl.files_per_thread in
  let path f = Printf.sprintf "/f%d" f in
  let sizes = Array.make nfiles Wl.file_bytes in
  let rng = Rng.create (seed + 101) in
  let make _m =
    Mods.Labfs.factory
      ~total_blocks:(Device.Profile.blocks Device.Profile.nvme)
      ~nworkers:Wl.nworkers ()
  in
  let setup h =
    for f = 0 to nfiles - 1 do
      ignore (Runtime.Mod_harness.run h (Request.Posix (Request.Create { path = path f })));
      ignore
        (Runtime.Mod_harness.run h
           (Request.Posix
              (Request.Pwrite { fd = 3; path = path f; off = 0; bytes = Wl.file_bytes })))
    done
  in
  let payload () =
    let f = Rng.int rng nfiles in
    let size = sizes.(f) in
    let path = path f and bytes = Wl.io_bytes in
    match Wl.fs_op rng ~size with
    | Wl.Fs_read off -> Request.Posix (Request.Pread { fd = 3; path; off; bytes })
    | Wl.Fs_overwrite off -> Request.Posix (Request.Pwrite { fd = 3; path; off; bytes })
    | Wl.Fs_append ->
        sizes.(f) <- size + bytes;
        Request.Posix (Request.Pwrite { fd = 3; path; off = size; bytes })
  in
  harness ~setup make payload ()

type components = {
  engine : cost;  (** per event *)
  park : cost;  (** per park/unpark cycle *)
  qp : cost;  (** per round trip *)
  hop : cost;  (** per Exec hop *)
  device : cost;  (** per command *)
  mods : (string * cost) list;  (** per call, dummy baseline removed *)
}

(* The instance of each module in the workloads' stacks. *)
let uuid_of = function
  | "labfs" -> "fs0"
  | "lru_cache" -> "cache0"
  | "blkswitch_sched" -> "sched0"
  | _ -> "drv0"

let zero = { ns = 0.0; words = 0.0 }

(* [inputs uuid] is what that module instance received in the recorded
   round. Each block module and the device are driven with exactly
   that traffic, replayed in order; a module that received nothing is
   not in the workload's stack and costs 0. LabFS is driven with the
   workload's own client op generator, which is all it receives. *)
let components kind ~seed ~inputs ~budget_s =
  let each = budget_s /. 9.0 in
  let b ?base f = bench ~budget_s:each ?base f in
  let engine = b (engine_timer ()) in
  let park = b (park_cycle ()) in
  let qp = b (qp_roundtrip ()) in
  let per_hop =
    b ~base:(exec_chain ~hops:1 ()) (exec_chain ~hops:exec_hops ())
  in
  let hop =
    { ns = per_hop.ns /. float_of_int (exec_hops - 1);
      words = per_hop.words /. float_of_int (exec_hops - 1) }
  in
  let drv_in = inputs "drv0" in
  let device =
    if Array.length drv_in = 0 then zero else b (device_cmds drv_in ())
  in
  let base =
    harness
      (fun _ -> Mods.Dummy_mod.factory ~op_ns:0.0 ())
      (fun () -> Request.Control 0)
      ()
  in
  (* The whole recording goes through once untimed, so a cache starts
     from the state the stack had built. *)
  let replayed ?after uuid make =
    match inputs uuid with
    | a when Array.length a = 0 -> zero
    | a ->
        let next = cycle a in
        b ~base
          (harness ?after ~warm:(Array.length a) make
             (fun () -> Request.Block (next ()))
             ())
  in
  let cache_mb =
    match kind with Wl.Blk_hot -> Wl.hot_cache_mb | _ -> Wl.fs_cache_mb
  in
  let lru =
    replayed "cache0"
      (with_attrs (Mods.Lru_cache.factory ())
         [ ("capacity_mb", Core.Yamlite.Int cache_mb); ("shards", Core.Yamlite.Int 4) ])
  in
  let sched_attrs =
    match kind with
    | Wl.Fs_mixed -> [ ("merge_window_ns", Core.Yamlite.Float 1000.0) ]
    | _ -> []
  in
  let sched =
    replayed "sched0"
      (with_attrs (Mods.Blkswitch_sched.factory
         ~nqueues:Device.Profile.nvme.Device.Profile.n_hw_queues ()) sched_attrs)
  in
  let driver_dev = ref None in
  let driver =
    replayed "drv0"
      ~after:(fun () -> Option.iter Device.Device.reset_stats !driver_dev)
      (fun m ->
        let dev = Device.Device.create m.Machine.engine Device.Profile.nvme in
        driver_dev := Some dev;
        Mods.Kernel_driver.factory
          ~blk:(Kernel.Blk.create m dev ~sched:Kernel.Blk.Noop))
  in
  let labfs =
    if kind = Wl.Fs_mixed then b ~base (labfs_component ~seed ()) else zero
  in
  {
    engine;
    park;
    qp;
    hop;
    device;
    mods =
      [
        ("labfs", labfs);
        ("lru_cache", lru);
        ("blkswitch_sched", sched);
        ("kernel_driver", driver);
      ];
  }
