(* Logical volume manager LabMod: maps logical extents onto physical
   extents across multiple backing devices (mirror legs). RAID0 stripes
   extents round-robin for bandwidth; RAID1 places every extent on every
   leg for availability. All metadata mutations — extent alloc/free,
   leg-state changes, rebuild checkpoints — are redo-logged: each op is
   appended to the journal, applied to the in-memory volume group, and
   persisted to a reserved metadata area on every live leg, so replaying
   any prefix of the journal yields a consistent volume group (the
   QCheck property in test/test_lvm.ml).

   When a leg's device goes offline (Device health watcher), reads and
   writes transparently degrade to the surviving legs; when it returns,
   a background process resilvers every allocated extent with
   rate-limited copy traffic while foreground I/O continues. *)

open Lab_sim
open Lab_core
module Metrics = Lab_obs.Metrics
module Device = Lab_device.Device
module Blk = Lab_kernel.Blk

let name = "lab_lvm"

(* Pure volume-group metadata: the redo-log op algebra and its
   idempotent interpreter, separated from the runtime so the
   crash-consistency properties are testable without a simulator. *)
module Meta = struct
  type leg_state = Healthy | Dead | Rebuilding

  let leg_state_to_string = function
    | Healthy -> "healthy"
    | Dead -> "dead"
    | Rebuilding -> "rebuilding"

  type op =
    | Alloc of { lidx : int; placements : (int * int) list }
        (** logical extent [lidx] lives at [(leg, pidx)] for each
            placement; re-logging with more placements (rebuild) simply
            overwrites — last write wins *)
    | Free of { lidx : int }
    | Leg_state of { leg : int; state : leg_state }
    | Rebuild_ckpt of { leg : int; copied : int }

  let op_to_string = function
    | Alloc { lidx; placements } ->
        Printf.sprintf "alloc l%d -> %s" lidx
          (String.concat ","
             (List.map (fun (l, p) -> Printf.sprintf "%d:%d" l p) placements))
    | Free { lidx } -> Printf.sprintf "free l%d" lidx
    | Leg_state { leg; state } ->
        Printf.sprintf "leg %d %s" leg (leg_state_to_string state)
    | Rebuild_ckpt { leg; copied } ->
        Printf.sprintf "ckpt leg %d copied %d" leg copied

  module IMap = Map.Make (Int)

  type vg = {
    nlegs : int;
    extents_per_leg : int;
    lmap : (int * int) list IMap.t;  (** logical extent -> placements *)
    states : leg_state IMap.t;  (** absent means Healthy *)
    ckpts : int IMap.t;
  }

  let create ~nlegs ~extents_per_leg =
    if nlegs <= 0 || extents_per_leg <= 0 then
      invalid_arg "Lab_lvm.Meta.create: sizes must be positive";
    { nlegs; extents_per_leg; lmap = IMap.empty; states = IMap.empty;
      ckpts = IMap.empty }

  (* Redo semantics: every op is an absolute assignment, never a delta,
     which is what makes replay idempotent — applying an op (or a whole
     suffix) twice is the same as applying it once. *)
  let apply vg = function
    | Alloc { lidx; placements } ->
        { vg with lmap = IMap.add lidx placements vg.lmap }
    | Free { lidx } -> { vg with lmap = IMap.remove lidx vg.lmap }
    | Leg_state { leg; state } ->
        { vg with states = IMap.add leg state vg.states }
    | Rebuild_ckpt { leg; copied } ->
        { vg with ckpts = IMap.add leg copied vg.ckpts }

  let replay ~nlegs ~extents_per_leg ops =
    List.fold_left apply (create ~nlegs ~extents_per_leg) ops

  let leg_state vg leg =
    match IMap.find_opt leg vg.states with Some s -> s | None -> Healthy

  let allocated vg = IMap.bindings vg.lmap

  let equal a b =
    a.nlegs = b.nlegs
    && a.extents_per_leg = b.extents_per_leg
    && IMap.equal ( = ) a.lmap b.lmap
    && IMap.equal ( = ) a.states b.states
    && IMap.equal ( = ) a.ckpts b.ckpts

  (* A consistent volume group: every placement is in bounds, a logical
     extent has at most one placement per leg, and no physical extent
     is double-booked by two logical extents. *)
  let consistent vg =
    let seen = Hashtbl.create 64 in
    let ok = ref true in
    IMap.iter
      (fun _ placements ->
        if placements = [] then ok := false;
        let legs_here = Hashtbl.create 4 in
        List.iter
          (fun (leg, pidx) ->
            if leg < 0 || leg >= vg.nlegs then ok := false;
            if pidx < 0 || pidx >= vg.extents_per_leg then ok := false;
            if Hashtbl.mem legs_here leg then ok := false;
            Hashtbl.replace legs_here leg ();
            if Hashtbl.mem seen (leg, pidx) then ok := false;
            Hashtbl.replace seen (leg, pidx) ())
          placements)
      vg.lmap;
    !ok
end

(* Simulated threads for control traffic, clear of clients (0+),
   workers (10_000+) and the admin (9_999). *)
let journal_thread = 21_000

let rebuild_thread_base = 22_000

let sector = 512

(* One redo record per metadata mutation, written synchronously to the
   reserved metadata area of each live leg. *)
let journal_record_bytes = 512

type leg = {
  l_idx : int;
  l_name : string;
  l_blk : Blk.t;
  l_dev : Device.t;
  mutable l_state : Meta.leg_state;
  l_used : Bytes.t;  (* physical-extent allocation bitmap *)
  mutable l_cursor : int;  (* next-fit scan position *)
  l_notify : Device.waiter -> unit;
      (* ends the leg's in-flight accounting, then wakes the waiter *)
}

(* LBA sectors per extent (1 MiB), the reserved journal area at the
   head of each leg, and the rebuilt extents between two rebuild
   checkpoints. *)
let extent_blocks = 2048

let meta_blocks = 4096

let ckpt_every = 64

type lvm = {
  uuid : string;
  raid : int;  (* 0 = stripe, 1 = mirror *)
  data_extents : int;  (* per leg *)
  legs : leg array;
  waiters : Device.waiter_pool;
  machine : Machine.t;
  rate_mbps : float;  (* resilver copy-rate cap *)
  mutable journal_rev : Meta.op list;  (* newest first *)
  mutable vg : Meta.vg;
  mutable jhead : int;
  mutable read_rr : int;
  mutable rebuild_done : int;
  mutable rebuild_total : int;
  c_degraded_reads : Metrics.counter;
  c_degraded_writes : Metrics.counter;
  c_legs_lost : Metrics.counter;
  c_rebuilds_completed : Metrics.counter;
  c_journal_records : Metrics.counter;
  c_journal_write_errors : Metrics.counter;
  c_extents_allocated : Metrics.counter;
  c_rebuild_copied_bytes : Metrics.counter;
}

type Labmod.state += State of lvm

let live_legs st =
  List.rev
    (Array.fold_left
       (fun acc leg -> if leg.l_state <> Meta.Dead then leg :: acc else acc)
       [] st.legs)

(* One command on one leg, on a pooled waiter: [None] on success. *)
let submit_leg_wait st leg ~thread ~kind ~lba ~bytes =
  let w = Device.take_waiter st.waiters in
  Device.set_notify w leg.l_notify;
  Blk.submit_io_to_hctx leg.l_blk ~thread ~hctx:thread ~kind ~lba ~bytes w;
  Device.await w;
  let err = Device.waiter_error w in
  Device.give_waiter st.waiters w;
  err

(* Fan one operation out to several legs, each on its own waiter, and
   park until all have finished. Each leg's notify ends its in-flight
   accounting and records its outcome; the last one wakes the caller,
   so the fan-out costs one wake. Outcomes come in completion order. *)
let submit_fan_wait st targets ~thread ~kind ~bytes =
  match targets with
  | [] -> []
  | _ ->
      let all_done = Engine.join (List.length targets) and outcomes = ref [] in
      List.iter
        (fun (leg, lba) ->
          let w = Device.take_waiter st.waiters in
          Device.set_notify w (fun w ->
              Blk.note_completion leg.l_blk ~hctx:(Device.waiter_hctx w) ~bytes;
              outcomes := (leg, Device.waiter_error w) :: !outcomes;
              Device.give_waiter st.waiters w;
              Engine.arrive all_done);
          Blk.submit_io_to_hctx leg.l_blk ~thread ~hctx:thread ~kind ~lba ~bytes w)
        targets;
      (* Submission charges CPU time, so early legs may already be done. *)
      Engine.await all_done;
      List.rev !outcomes

(* Redo-log append: journal first, then apply to the in-memory volume
   group, then persist one record to every live leg's metadata area —
   write-ahead with respect to the data movement the caller is about to
   do. Persist failures don't fail the mutation (the device-loss path
   is the health watcher's job); they are counted. *)
let log_op st ~thread op =
  st.journal_rev <- op :: st.journal_rev;
  st.vg <- Meta.apply st.vg op;
  Metrics.incr st.c_journal_records;
  let lba = st.jhead in
  st.jhead <- (st.jhead + 1) mod meta_blocks;
  let targets = List.map (fun leg -> (leg, lba)) (live_legs st) in
  let results =
    submit_fan_wait st targets ~thread ~kind:Device.Write
      ~bytes:journal_record_bytes
  in
  List.iter
    (function
      | _, None -> ()
      | _, Some _ -> Metrics.incr st.c_journal_write_errors)
    results

let journal st = List.rev st.journal_rev

(* Next-fit physical extent allocation on one leg. *)
let alloc_pidx st leg =
  let n = st.data_extents in
  let rec go tries i =
    if tries = n then None
    else if Bytes.get leg.l_used i = '\000' then begin
      Bytes.set leg.l_used i '\001';
      leg.l_cursor <- (i + 1) mod n;
      Some i
    end
    else go (tries + 1) ((i + 1) mod n)
  in
  go 0 leg.l_cursor

(* Placement policy. RAID1 allocates on every non-dead leg (a
   rebuilding leg receives new writes; its older extents are what the
   resilver copies). RAID0 stripes by logical index regardless of
   health — a striped volume has no redundancy to hide a dead leg. *)
let place st lidx =
  match st.raid with
  | 0 ->
      let leg = st.legs.(lidx mod Array.length st.legs) in
      Option.map (fun pidx -> [ (leg.l_idx, pidx) ]) (alloc_pidx st leg)
  | _ ->
      let placements =
        Array.fold_left
          (fun acc leg ->
            if leg.l_state = Meta.Dead then acc
            else
              match alloc_pidx st leg with
              | Some pidx -> (leg.l_idx, pidx) :: acc
              | None -> acc)
          [] st.legs
        |> List.rev
      in
      if placements = [] then None else Some placements

let ensure_alloc st ~thread lidx =
  match Meta.IMap.find_opt lidx st.vg.Meta.lmap with
  | Some placements -> Some placements
  | None -> (
      match place st lidx with
      | None -> None
      | Some placements ->
          Metrics.incr st.c_extents_allocated;
          log_op st ~thread (Meta.Alloc { lidx; placements });
          Some placements)

let free_extent st ~thread lidx =
  match Meta.IMap.find_opt lidx st.vg.Meta.lmap with
  | None -> ()
  | Some placements ->
      List.iter
        (fun (li, pidx) -> Bytes.set st.legs.(li).l_used pidx '\000')
        placements;
      log_op st ~thread (Meta.Free { lidx })

let data_lba ~pidx ~off = meta_blocks + (pidx * extent_blocks) + off

(* Split a block operation into per-logical-extent segments:
   (lidx, offset-in-extent, bytes). *)
let segments ~lba ~bytes =
  let nblocks = (bytes + sector - 1) / sector in
  let rec go acc lba blocks_left bytes_left =
    if blocks_left <= 0 then List.rev acc
    else begin
      let lidx = lba / extent_blocks in
      let off = lba mod extent_blocks in
      let span = Stdlib.min (extent_blocks - off) blocks_left in
      let seg_bytes = Stdlib.min bytes_left (span * sector) in
      go
        ((lidx, off, seg_bytes) :: acc)
        (lba + span) (blocks_left - span) (bytes_left - seg_bytes)
    end
  in
  go [] lba nblocks bytes

let err_enodev detail = Request.failed_errno "ENODEV" (name ^ ": " ^ detail)

let mark_dead st ~thread leg =
  if leg.l_state <> Meta.Dead then begin
    leg.l_state <- Meta.Dead;
    Metrics.incr st.c_legs_lost;
    log_op st ~thread (Meta.Leg_state { leg = leg.l_idx; state = Meta.Dead })
  end

(* Background resilver: copy every allocated extent onto the returned
   leg, capped at [rate_mbps] so rebuild traffic coexists with
   foreground I/O instead of saturating the device. Only mirrored
   volumes have a surviving copy to read from. *)
let rebuild st leg targets () =
  let thread = rebuild_thread_base + leg.l_idx in
  let ebytes = extent_blocks * sector in
  let min_copy_ns =
    (* bytes / (MB/s) in ns: mbps MB/s = mbps/1000 bytes/ns. *)
    Stdlib.float_of_int ebytes *. 1000.0 /. st.rate_mbps
  in
  let engine = st.machine.Machine.engine in
  let aborted = ref false in
  List.iteri
    (fun i lidx ->
      if (not !aborted) && leg.l_state = Meta.Rebuilding then begin
        let t0 = Engine.now engine in
        let placements =
          Option.value ~default:[]
            (Meta.IMap.find_opt lidx st.vg.Meta.lmap)
        in
        let source =
          List.find_opt
            (fun (li, _) ->
              li <> leg.l_idx && st.legs.(li).l_state = Meta.Healthy)
            placements
        in
        let target_pidx =
          match List.assoc_opt leg.l_idx placements with
          | Some pidx -> Some pidx
          | None -> (
              (* Allocated while this leg was dead: give it a physical
                 home here and re-log the extended placement set. *)
              match alloc_pidx st leg with
              | None -> None
              | Some pidx ->
                  log_op st ~thread
                    (Meta.Alloc
                       { lidx; placements = placements @ [ (leg.l_idx, pidx) ] });
                  Some pidx)
        in
        (match (source, target_pidx) with
        | Some (sli, spidx), Some tpidx -> (
            let src = st.legs.(sli) in
            match
              submit_leg_wait st src ~thread ~kind:Device.Read
                ~lba:(data_lba ~pidx:spidx ~off:0) ~bytes:ebytes
            with
            | Some _ -> aborted := true
            | None -> (
                match
                  submit_leg_wait st leg ~thread ~kind:Device.Write
                    ~lba:(data_lba ~pidx:tpidx ~off:0) ~bytes:ebytes
                with
                | Some _ -> aborted := true
                | None -> Metrics.incr ~by:ebytes st.c_rebuild_copied_bytes))
        | _ -> aborted := true);
        (* The done-counter stays below the total until the completion
           block has journaled — rebuild_frac reads 1.0 only once the
           rebuild is fully finished, records included. The trailing
           rate-limit wait is also skipped on the last extent: it only
           exists to pace the next copy. *)
        if (not !aborted) && i + 1 < st.rebuild_total then begin
          st.rebuild_done <- i + 1;
          if (i + 1) mod ckpt_every = 0 then
            log_op st ~thread
              (Meta.Rebuild_ckpt { leg = leg.l_idx; copied = i + 1 });
          let elapsed = Engine.now engine -. t0 in
          if elapsed < min_copy_ns then Engine.wait (min_copy_ns -. elapsed)
        end
      end)
    targets;
  if (not !aborted) && leg.l_state = Meta.Rebuilding then begin
    leg.l_state <- Meta.Healthy;
    log_op st ~thread
      (Meta.Rebuild_ckpt { leg = leg.l_idx; copied = st.rebuild_total });
    log_op st ~thread
      (Meta.Leg_state { leg = leg.l_idx; state = Meta.Healthy });
    Metrics.incr st.c_rebuilds_completed;
    st.rebuild_done <- st.rebuild_total
  end

let on_leg_online st leg =
  if leg.l_state = Meta.Dead then begin
    leg.l_state <- Meta.Rebuilding;
    (* Snapshot the work-list and publish the totals synchronously, so
       rebuild_frac drops below 1.0 the instant the leg is back —
       before the background copier has had a chance to run. *)
    let targets =
      if st.raid = 0 then [] else List.map fst (Meta.allocated st.vg)
    in
    st.rebuild_total <- List.length targets;
    st.rebuild_done <- 0;
    log_op st ~thread:journal_thread
      (Meta.Leg_state { leg = leg.l_idx; state = Meta.Rebuilding });
    Engine.spawn st.machine.Machine.engine (rebuild st leg targets)
  end

(* Mirror write: fan to every placement whose leg is alive, await all;
   the write succeeds if at least one replica persisted. A leg
   answering ENODEV is marked dead on the spot (the health watcher
   would catch it at the window boundary anyway; this just reacts one
   command earlier). *)
let write_segment st ~thread placements seg_bytes ~off =
  let targets, skipped =
    List.partition_map
      (fun (li, pidx) ->
        let leg = st.legs.(li) in
        if leg.l_state = Meta.Dead then Right (li, pidx)
        else Left (leg, data_lba ~pidx ~off))
      placements
  in
  if targets = [] then err_enodev "no live mirror leg for write"
  else begin
    if skipped <> [] then Metrics.incr st.c_degraded_writes;
    let results =
      submit_fan_wait st targets ~thread ~kind:Device.Write ~bytes:seg_bytes
    in
    let oks, errs = List.partition (fun (_, err) -> err = None) results in
    List.iter
      (function
        | leg, Some Device.E_offline -> mark_dead st ~thread leg
        | _ -> ())
      errs;
    if oks = [] then
      match errs with
      | (_, Some e) :: _ -> Mod_util.device_error name e
      | _ -> err_enodev "no live mirror leg for write"
    else begin
      if errs <> [] then Metrics.incr st.c_degraded_writes;
      Request.Size seg_bytes
    end
  end

(* Mirror read: round-robin across healthy placements, failing over to
   the next candidate on error. Serving a read with any placement
   unavailable counts as degraded. *)
let read_segment st ~thread placements seg_bytes ~off =
  let candidates =
    List.filter
      (fun (li, _) -> st.legs.(li).l_state = Meta.Healthy)
      placements
  in
  if candidates = [] then err_enodev "no healthy leg for read"
  else begin
    if List.length candidates < List.length placements then
      Metrics.incr st.c_degraded_reads;
    let n = List.length candidates in
    let start = st.read_rr mod n in
    st.read_rr <- st.read_rr + 1;
    let order =
      List.mapi (fun i c -> ((i + n - start) mod n, c)) candidates
      |> List.sort compare |> List.map snd
    in
    let rec attempt last_err = function
      | [] -> (
          match last_err with
          | Some e -> Mod_util.device_error name e
          | None -> err_enodev "no healthy leg for read")
      | (li, pidx) :: rest -> (
          let leg = st.legs.(li) in
          match
            submit_leg_wait st leg ~thread ~kind:Device.Read
              ~lba:(data_lba ~pidx ~off) ~bytes:seg_bytes
          with
          | None -> Request.Size seg_bytes
          | Some e ->
              if e = Device.E_offline then mark_dead st ~thread leg;
              if rest <> [] then Metrics.incr st.c_degraded_reads;
              attempt (Some e) rest)
    in
    attempt None order
  end

let operate m ctx req =
  match (m.Labmod.state, req.Request.payload) with
  | State st, Request.Block { b_kind; b_lba; b_bytes; _ } ->
      let thread = ctx.Labmod.thread in
      let segs = segments ~lba:b_lba ~bytes:b_bytes in
      let rec run = function
        | [] -> Request.Size b_bytes
        | (lidx, off, seg_bytes) :: rest -> (
            match b_kind with
            | Request.Write -> (
                match ensure_alloc st ~thread lidx with
                | None ->
                    Request.failed_errno "ENOSPC"
                      (name ^ ": volume group out of extents")
                | Some placements -> (
                    match write_segment st ~thread placements seg_bytes ~off with
                    | Request.Size _ -> run rest
                    | err -> err))
            | Request.Read -> (
                match Meta.IMap.find_opt lidx st.vg.Meta.lmap with
                | None ->
                    (* Never written: a zero-filled extent, no device
                       traffic needed. *)
                    run rest
                | Some placements -> (
                    match read_segment st ~thread placements seg_bytes ~off with
                    | Request.Size _ -> run rest
                    | err -> err)))
      in
      run segs
  | State _, _ -> Request.Failed (name ^ ": expects block requests")
  | _ -> Request.Failed (name ^ ": missing state")

let est m req =
  match (m.Labmod.state, req.Request.payload) with
  | State st, Request.Block { b_kind; b_bytes; _ } ->
      let fan =
        if st.raid = 1 && b_kind = Request.Write then Array.length st.legs
        else 1
      in
      1500.0 +. (0.01 *. Stdlib.float_of_int (b_bytes * fan))
  | _ -> 500.0

(* Crash recovery: rebuild the volume group and the per-leg allocation
   bitmaps by replaying the redo journal from the start — replay is
   idempotent, so recovering twice (or from any prefix, for the
   property test) is harmless. *)
let repair m =
  match m.Labmod.state with
  | State st ->
      st.vg <-
        Meta.replay ~nlegs:(Array.length st.legs)
          ~extents_per_leg:st.data_extents (journal st);
      Array.iter
        (fun leg ->
          Bytes.fill leg.l_used 0 (Bytes.length leg.l_used) '\000';
          leg.l_cursor <- 0;
          leg.l_state <- Meta.leg_state st.vg leg.l_idx)
        st.legs;
      Meta.IMap.iter
        (fun _ placements ->
          List.iter
            (fun (li, pidx) -> Bytes.set st.legs.(li).l_used pidx '\001')
            placements)
        st.vg.Meta.lmap
  | _ -> ()

let state_of = function
  | { Labmod.state = State st; _ } -> st
  | _ -> invalid_arg "Lab_lvm: not a lab_lvm instance"

let journal_ops m = journal (state_of m)

let vg m = (state_of m).vg

let rebuild_frac_of st =
  if st.rebuild_total = 0 then 1.0
  else
    Stdlib.float_of_int st.rebuild_done
    /. Stdlib.float_of_int st.rebuild_total

let rebuild_frac m = rebuild_frac_of (state_of m)

let leg_states m =
  Array.to_list
    (Array.map
       (fun leg -> (leg.l_name, Meta.leg_state_to_string leg.l_state))
       (state_of m).legs)

let counters m =
  let st = state_of m in
  [
    ("degraded_reads", Metrics.value st.c_degraded_reads);
    ("degraded_writes", Metrics.value st.c_degraded_writes);
    ("legs_lost", Metrics.value st.c_legs_lost);
    ("rebuilds_completed", Metrics.value st.c_rebuilds_completed);
    ("journal_records", Metrics.value st.c_journal_records);
    ("journal_write_errors", Metrics.value st.c_journal_write_errors);
    ("extents_allocated", Metrics.value st.c_extents_allocated);
    ("rebuild_copied_bytes", Metrics.value st.c_rebuild_copied_bytes);
  ]

let free m ~thread ~lba ~bytes =
  let st = state_of m in
  List.iter
    (fun (lidx, _, _) -> free_extent st ~thread lidx)
    (segments ~lba ~bytes)

(* The attribute table over the candidate backends [legs]: it decodes
   (raid, chosen legs). Two legs on one device would map extents to the
   same sectors, so a backend may be named once. *)
let attr_table legs =
  let names =
    "distinct backend names among "
    ^ String.concat ", " (List.map (fun (n, _, _) -> n) legs)
  in
  let leg n =
    try List.find (fun (n', _, _) -> n' = n) legs with Not_found -> Registry.reject names
  in
  Registry.
    [
      int_attr "raid" (fun (_, ls) r -> if r = 0 || r = 1 then (r, ls) else reject "0 or 1");
      strings_attr "legs" (fun (r, _) ns ->
          let distinct = List.length (List.sort_uniq compare ns) = List.length ns in
          (r, if ns = [] || not distinct then reject names else List.map leg ns));
    ]

let factory ?(env = Mod_util.detached) ~machine ~legs ~rebuild_rate_mbps () :
    Registry.factory =
 fun ~uuid ~attrs ->
  let env = Mod_util.for_instance env ~uuid in
  let metrics = env.Mod_util.metrics in
  (* By default, a mirror over every backend. *)
  let raid, chosen =
    Registry.decode_attrs ~mod_name:name (attr_table legs) (1, legs) attrs
  in
  let data_extents =
    List.fold_left
      (fun acc (_, blk, _) ->
        let blocks =
          Lab_device.Profile.blocks (Device.profile (Blk.device blk))
        in
        Stdlib.min acc (Stdlib.max 1 ((blocks - meta_blocks) / extent_blocks)))
      Stdlib.max_int chosen
  in
  let legs_arr =
    Array.of_list
      (List.mapi
         (fun i (n, blk, dev) ->
           {
             l_idx = i;
             l_name = n;
             l_blk = blk;
             l_dev = dev;
             l_state = Meta.Healthy;
             l_used = Bytes.make data_extents '\000';
             l_cursor = 0;
             l_notify =
               (fun w ->
                 Blk.note_completion blk ~hctx:(Device.waiter_hctx w)
                   ~bytes:(Device.waiter_bytes w);
                 Device.wake w);
           })
         chosen)
  in
  let c nm = Metrics.counter ?reg:metrics (Printf.sprintf "mod.%s.%s" uuid nm) in
  let st =
    {
      uuid;
      raid;
      data_extents;
      legs = legs_arr;
      waiters = Device.waiter_pool ();
      machine;
      rate_mbps = rebuild_rate_mbps;
      journal_rev = [];
      vg = Meta.create ~nlegs:(Array.length legs_arr) ~extents_per_leg:data_extents;
      jhead = 0;
      read_rr = 0;
      rebuild_done = 0;
      rebuild_total = 0;
      c_degraded_reads = c "degraded_reads";
      c_degraded_writes = c "degraded_writes";
      c_legs_lost = c "legs_lost";
      c_rebuilds_completed = c "rebuilds_completed";
      c_journal_records = c "journal_records";
      c_journal_write_errors = c "journal_write_errors";
      c_extents_allocated = c "extents_allocated";
      c_rebuild_copied_bytes = c "rebuild_copied_bytes";
    }
  in
  (match metrics with
  | Some reg ->
      Metrics.gauge_fn reg
        (Printf.sprintf "mod.%s.rebuild_frac" uuid)
        (fun () -> rebuild_frac_of st);
      Metrics.gauge_fn reg
        (Printf.sprintf "mod.%s.live_legs" uuid)
        (fun () -> Stdlib.float_of_int (List.length (live_legs st)))
  | None -> ());
  (* The device-loss hook: each leg's health watcher flips the mirror
     state machine (healthy -> dead -> rebuilding -> healthy) and
     journals every transition. Probe instantiations must not attach
     watchers to shared devices. *)
  if not (Mod_util.is_probe ~uuid) then
    Array.iter
      (fun leg ->
        Device.add_health_watcher leg.l_dev (function
          | Device.Went_offline _ -> mark_dead st ~thread:journal_thread leg
          | Device.Came_online -> on_leg_online st leg))
      legs_arr;
  Labmod.make ~name ~uuid ~mod_type:Labmod.Driver ~state:(State st)
    {
      Labmod.operate;
      est_processing_time = est;
      state_update = Mod_util.identity_state;
      state_repair = repair;
    }
