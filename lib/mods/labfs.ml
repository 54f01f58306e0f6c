open Lab_sim
open Lab_core

type log_record =
  | Rec_create of { path : string; ino : int }
  | Rec_write of { ino : int; first_block : int; nblocks : int; size : int }
  | Rec_unlink of { path : string }
  | Rec_rename of { src : string; dst : string }

type inode = {
  ino : int;
  mutable size : int;
  mutable first_block : int;
  mutable nblocks : int;
}

let block_size = 4096

type fs_state = {
  inodes : (string, inode) Hashtbl.t;
  alloc : Block_alloc.t;
  mutable log : log_record list;  (* newest first *)
  mutable log_len : int;
  mutable log_bytes_pending : int;
  mutable next_ino : int;
  mutable log_lba : int;
  nworkers : int;
  mutable commit_failures : int;
      (* journal commits that failed at the device and were aborted *)
}

type Labmod.state += State of fs_state

let name = "labfs"

let record_bytes = 64

let log_flush_threshold = 4096

(* CPU costs per metadata operation: request decoding, inode-hashmap
   manipulation, log-record construction. Creates dominate (inode init,
   allocator bookkeeping), calibrated against the paper's Figure 7. *)
let create_cpu_ns = 2200.0

let write_meta_cpu_ns = 450.0

let lookup_cpu_ns = 350.0

let unlink_cpu_ns = 1200.0

let rename_cpu_ns = 1000.0

let state_of m =
  match m.Labmod.state with
  | State s -> s
  | _ -> invalid_arg "labfs: bad state"

let log_of m = List.rev (state_of m).log

let inodes_of m =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) (state_of m).inodes []

let file_count m = Hashtbl.length (state_of m).inodes

let commit_failures m = (state_of m).commit_failures

let lookup m path = Hashtbl.find_opt (state_of m).inodes path

let allocator m = (state_of m).alloc

(* Walk the log forward, tracking name->ino bindings, and collect the
   records that touched the inode currently visible at [path]. *)
let provenance m path =
  let s = state_of m in
  match Hashtbl.find_opt s.inodes path with
  | None -> []
  | Some target ->
      let names = Hashtbl.create 64 in
      let events = ref [] in
      List.iter
        (fun r ->
          match r with
          | Rec_create { path = p; ino } ->
              Hashtbl.replace names p ino;
              if ino = target.ino then events := r :: !events
          | Rec_write { ino; _ } ->
              if ino = target.ino then events := r :: !events
          | Rec_unlink { path = p } -> Hashtbl.remove names p
          | Rec_rename { src; dst } -> (
              match Hashtbl.find_opt names src with
              | Some ino ->
                  Hashtbl.remove names src;
                  Hashtbl.replace names dst ino;
                  if ino = target.ino then events := r :: !events
              | None -> ()))
        (List.rev s.log);
      List.rev !events

let replay records =
  let inodes = Hashtbl.create 1024 in
  let by_ino = Hashtbl.create 1024 in
  List.iter
    (fun r ->
      match r with
      | Rec_create { path; ino } ->
          let inode = { ino; size = 0; first_block = -1; nblocks = 0 } in
          Hashtbl.replace inodes path inode;
          Hashtbl.replace by_ino ino inode
      | Rec_write { ino; first_block; nblocks; size } -> (
          match Hashtbl.find_opt by_ino ino with
          | Some inode ->
              if inode.first_block = -1 then inode.first_block <- first_block;
              inode.nblocks <- inode.nblocks + nblocks;
              inode.size <- Stdlib.max inode.size size
          | None -> ())
      | Rec_unlink { path } -> (
          match Hashtbl.find_opt inodes path with
          | Some inode ->
              Hashtbl.remove inodes path;
              Hashtbl.remove by_ino inode.ino
          | None -> ())
      | Rec_rename { src; dst } -> (
          match Hashtbl.find_opt inodes src with
          | Some inode ->
              Hashtbl.remove inodes src;
              Hashtbl.replace inodes dst inode
          | None -> ()))
    records;
  inodes

(* A journal commit failed at the device: the records it carried were
   never persisted, so they must not stay in the log (replay after a
   crash would disagree with what stable storage holds). Drop exactly
   those records — [newer] records appended after the failed flush stay,
   the [count] flushed ones go — then rebuild the inode table from the
   surviving log, reusing the recovery machinery. *)
let abort_uncommitted s ~newer ~count =
  let rec drop i acc = function
    | [] -> List.rev acc
    | r :: rest ->
        if i >= newer && i < newer + count then drop (i + 1) acc rest
        else drop (i + 1) (r :: acc) rest
  in
  s.log <- drop 0 [] s.log;
  s.log_len <- Stdlib.max 0 (s.log_len - count);
  s.commit_failures <- s.commit_failures + 1;
  let rebuilt = replay (List.rev s.log) in
  Hashtbl.reset s.inodes;
  Hashtbl.iter (fun k v -> Hashtbl.replace s.inodes k v) rebuilt

(* Append a metadata record; flush a full log page downstream (group
   commit — the flush cost is amortized over threshold/record_bytes
   operations). *)
let append s ctx record =
  s.log <- record :: s.log;
  s.log_len <- s.log_len + 1;
  s.log_bytes_pending <- s.log_bytes_pending + record_bytes;
  if s.log_bytes_pending >= log_flush_threshold then begin
    let bytes = s.log_bytes_pending in
    s.log_bytes_pending <- 0;
    let lba = s.log_lba in
    s.log_lba <- s.log_lba + (bytes / block_size) + 1;
    let flush_req =
      {
        (Request.make ~id:(-1) ~pid:0 ~uid:0 ~thread:ctx.Labmod.thread
           ~stack_id:0 ~now:0.0
           (Request.Block
              {
                Request.b_kind = Request.Write;
                b_lba = lba;
                b_bytes = bytes;
                b_sync = true;
              }))
        with
        Request.hop = "";
      }
    in
    let mark_len = s.log_len in
    let count = bytes / record_bytes in
    ctx.Labmod.forward_async flush_req (fun r ->
        if not (Request.is_ok r) then
          abort_uncommitted s ~newer:(s.log_len - mark_len) ~count)
  end

let charge ctx ns = Machine.compute ctx.Labmod.machine ~thread:ctx.Labmod.thread ns

let do_create s ctx path =
  charge ctx create_cpu_ns;
  (* Re-creating an existing file truncates it: old blocks return to
     the allocator and the log records a fresh inode, so replay agrees
     with the live table. *)
  (match Hashtbl.find_opt s.inodes path with
  | Some old when old.first_block >= 0 ->
      Block_alloc.free s.alloc ~worker:(ctx.Labmod.thread mod s.nworkers)
        (List.init old.nblocks (fun i -> old.first_block + i))
  | Some _ | None -> ());
  let ino = s.next_ino in
  s.next_ino <- ino + 1;
  Hashtbl.replace s.inodes path { ino; size = 0; first_block = -1; nblocks = 0 };
  append s ctx (Rec_create { path; ino });
  Request.Done

let do_write s ctx req path ~off ~bytes =
  charge ctx write_meta_cpu_ns;
  match Hashtbl.find_opt s.inodes path with
  | None -> Request.Failed ("labfs: no such file " ^ path)
  | Some inode ->
      let needed_blocks =
        let covered = inode.nblocks * block_size in
        let upto = off + bytes in
        if upto <= covered then 0
        else (upto - covered + block_size - 1) / block_size
      in
      if needed_blocks > 0 then begin
        let worker = ctx.Labmod.thread mod s.nworkers in
        let blocks = Block_alloc.alloc s.alloc ~worker needed_blocks in
        let first = List.hd blocks in
        if inode.first_block = -1 then inode.first_block <- first;
        inode.nblocks <- inode.nblocks + needed_blocks;
        append s ctx
          (Rec_write
             {
               ino = inode.ino;
               first_block = first;
               nblocks = needed_blocks;
               size = off + bytes;
             })
      end;
      inode.size <- Stdlib.max inode.size (off + bytes);
      let lba = inode.first_block + (off / block_size) in
      let io =
        {
          req with
          Request.payload =
            Request.Block
              { Request.b_kind = Request.Write; b_lba = lba; b_bytes = bytes; b_sync = false };
        }
      in
      ctx.Labmod.forward io

let do_read s ctx req path ~off ~bytes =
  charge ctx lookup_cpu_ns;
  match Hashtbl.find_opt s.inodes path with
  | None -> Request.Failed ("labfs: no such file " ^ path)
  | Some inode ->
      if inode.first_block = -1 then Request.Size 0
      else begin
        let bytes = Stdlib.min bytes (Stdlib.max 0 (inode.size - off)) in
        if bytes = 0 then Request.Size 0
        else begin
          let lba = inode.first_block + (off / block_size) in
          let io =
            {
              req with
              Request.payload =
                Request.Block
                  { Request.b_kind = Request.Read; b_lba = lba; b_bytes = bytes; b_sync = false };
            }
          in
          ctx.Labmod.forward io
        end
      end

let do_fsync s ctx req =
  if s.log_bytes_pending > 0 then begin
    let bytes = s.log_bytes_pending in
    s.log_bytes_pending <- 0;
    let lba = s.log_lba in
    s.log_lba <- s.log_lba + (bytes / block_size) + 1;
    let io =
      {
        req with
        Request.payload =
          Request.Block
            { Request.b_kind = Request.Write; b_lba = lba; b_bytes = bytes; b_sync = true };
      }
    in
    let mark_len = s.log_len in
    let result = ctx.Labmod.forward io in
    if Request.is_ok result then Request.Done
    else begin
      (* The commit never reached stable storage: abort the records it
         carried and surface the failure to the caller. [forward] may
         have yielded, so account for records appended meanwhile. *)
      abort_uncommitted s ~newer:(s.log_len - mark_len)
        ~count:(bytes / record_bytes);
      result
    end
  end
  else Request.Done

let do_unlink s ctx path =
  charge ctx unlink_cpu_ns;
  match Hashtbl.find_opt s.inodes path with
  | None -> Request.Failed ("labfs: no such file " ^ path)
  | Some inode ->
      Hashtbl.remove s.inodes path;
      if inode.first_block >= 0 then begin
        let worker = ctx.Labmod.thread mod s.nworkers in
        Block_alloc.free s.alloc ~worker
          (List.init inode.nblocks (fun i -> inode.first_block + i))
      end;
      append s ctx (Rec_unlink { path });
      Request.Done

let do_rename s ctx src dst =
  charge ctx rename_cpu_ns;
  match Hashtbl.find_opt s.inodes src with
  | None -> Request.Failed ("labfs: no such file " ^ src)
  | Some inode ->
      Hashtbl.remove s.inodes src;
      Hashtbl.replace s.inodes dst inode;
      append s ctx (Rec_rename { src; dst });
      Request.Done

let operate m ctx req =
  let s = state_of m in
  match req.Request.payload with
  | Request.Posix op -> (
      match op with
      | Request.Create { path } -> do_create s ctx path
      | Request.Open { path; create = true } ->
          (* O_CREAT without O_TRUNC: existing files are left intact. *)
          if Hashtbl.mem s.inodes path then begin
            charge ctx lookup_cpu_ns;
            Request.Done
          end
          else do_create s ctx path
      | Request.Open { path; create = false } ->
          charge ctx lookup_cpu_ns;
          if Hashtbl.mem s.inodes path then Request.Done
          else Request.Failed ("labfs: no such file " ^ path)
      | Request.Close _ -> Request.Done
      | Request.Pwrite { path; off; bytes; _ } -> do_write s ctx req path ~off ~bytes
      | Request.Pread { path; off; bytes; _ } -> do_read s ctx req path ~off ~bytes
      | Request.Fsync _ -> do_fsync s ctx req
      | Request.Unlink { path } -> do_unlink s ctx path
      | Request.Rename { src; dst } -> do_rename s ctx src dst)
  | Request.Kv _ | Request.Block _ | Request.Control _ ->
      Request.Failed "labfs: expects POSIX requests"

let est m req =
  ignore m;
  match req.Request.payload with
  | Request.Posix (Request.Pwrite { bytes; _ })
  | Request.Posix (Request.Pread { bytes; _ }) ->
      2000.0 +. (0.05 *. Stdlib.float_of_int bytes)
  | _ -> 1500.0

let factory ~total_blocks ~nworkers () : Registry.factory =
 fun ~uuid ~attrs ->
  Keys.decode [] () attrs;
  let state =
    State
      {
        inodes = Hashtbl.create 4096;
        alloc = Block_alloc.create ~total_blocks ~workers:(Stdlib.max 1 nworkers) ();
        log = [];
        log_len = 0;
        log_bytes_pending = 0;
        next_ino = 1;
        log_lba = 0;
        nworkers = Stdlib.max 1 nworkers;
        commit_failures = 0;
      }
  in
  Labmod.make ~name ~uuid ~mod_type:Labmod.Filesystem ~state
    {
      Labmod.operate;
      est_processing_time = est;
      state_update = Mod_util.identity_state;
      state_repair =
        (fun m ->
          (* Crash recovery: the inode table must equal the log replay. *)
          let s = state_of m in
          let rebuilt = replay (List.rev s.log) in
          Hashtbl.reset s.inodes;
          Hashtbl.iter (fun k v -> Hashtbl.replace s.inodes k v) rebuilt);
    }
