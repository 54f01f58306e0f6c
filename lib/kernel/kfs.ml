open Lab_sim
open Lab_device

type flavor = Ext4 | Xfs | F2fs

let flavor_name = function Ext4 -> "ext4" | Xfs -> "xfs" | F2fs -> "f2fs"

(* Per-flavor behavioural parameters (ns). [dir_hold_ns] is CPU executed
   under the parent-directory lock — the serialization FxMark exposes.
   [journal_hold_ns] is CPU under the journal lock per record. *)
type params = {
  namei_ns : float;
  create_cpu_ns : float;  (* outside any lock *)
  dir_hold_ns : float;
  journal_hold_ns : float;
  journal_record_bytes : int;
  journal_batch : int;
  alloc_shards : int;
  contention_factor : float;  (* extra hold per waiting thread *)
}

let params_of = function
  | Ext4 ->
      {
        namei_ns = 700.0;
        create_cpu_ns = 6100.0;
        dir_hold_ns = 2500.0;
        journal_hold_ns = 1500.0;
        journal_record_bytes = 512;
        journal_batch = 64;
        alloc_shards = 16;
        contention_factor = 0.18;
      }
  | Xfs ->
      {
        namei_ns = 800.0;
        create_cpu_ns = 8100.0;
        dir_hold_ns = 2200.0;
        journal_hold_ns = 1100.0;
        journal_record_bytes = 512;
        journal_batch = 128;
        alloc_shards = 8;
        contention_factor = 0.15;
      }
  | F2fs ->
      {
        namei_ns = 650.0;
        create_cpu_ns = 4600.0;
        dir_hold_ns = 2800.0;
        journal_hold_ns = 1800.0;
        journal_record_bytes = 256;
        journal_batch = 64;
        alloc_shards = 4;
        contention_factor = 0.22;
      }

type file = {
  id : int;
  mutable size : int;
  mutable extents : (int * int) list;  (* (first_page_in_file, base_lba) *)
}

type t = {
  machine : Machine.t;
  fl : flavor;
  p : params;
  blk : Blk.t;
  cache : Page_cache.t;
  files : (string, file) Hashtbl.t;
  dir_locks : (string, Semaphore.t) Hashtbl.t;
  alloc_locks : Semaphore.t array;
  journal_lock : Semaphore.t;
  mutable journal_pending : int;
  mutable journal_lba : int;
  mutable commits : int;
  mutable next_lba : int;
  mutable next_file_id : int;
  page_owner : file Itbl.t;  (* cache key -> file, for fsync *)
  (* Write-back of evicted dirty pages is fire and forget: a pooled
     waiter's notify ends the in-flight accounting and frees it. *)
  wb_waiters : Device.waiter_pool;
  wb_notify : Device.waiter -> unit;
}

let region_pages = 4096 (* 16 MiB extents at 4 KiB pages *)

let max_pages_per_file = 1 lsl 24

let create_fs machine blk ~flavor =
  let page_size = (Device.profile (Blk.device blk)).Profile.block_size in
  let page_size = Stdlib.max page_size 4096 in
  let wb_waiters = Device.waiter_pool () in
  {
    machine;
    fl = flavor;
    p = params_of flavor;
    blk;
    cache = Page_cache.create machine ~capacity_pages:65536 ~page_size;
    files = Hashtbl.create 1024;
    dir_locks = Hashtbl.create 64;
    alloc_locks = Array.init (params_of flavor).alloc_shards (fun _ -> Semaphore.create 1);
    journal_lock = Semaphore.create 1;
    journal_pending = 0;
    journal_lba = 0;
    commits = 0;
    next_lba = 1 lsl 20;  (* leave room for the journal region *)
    next_file_id = 0;
    page_owner = Itbl.create 4096;
    wb_waiters;
    wb_notify =
      (fun w ->
        Blk.note_completion blk ~hctx:(Device.waiter_hctx w)
          ~bytes:(Device.waiter_bytes w);
        Device.give_waiter wb_waiters w);
  }

let machine t = t.machine

let flavor t = t.fl

let costs t = t.machine.Machine.costs

(* Mode switch plus the VFS fixed path (fdget, rw_verify_area, security
   hooks, fsnotify) every file syscall traverses. *)
let vfs_overhead_ns = 900.0

let syscall t ~thread =
  Machine.compute t.machine ~thread ((costs t).Costs.syscall_ns +. vfs_overhead_ns)

let dirname path =
  match String.rindex_opt path '/' with
  | Some i when i > 0 -> String.sub path 0 i
  | _ -> "/"

let dir_lock t dir =
  match Hashtbl.find_opt t.dir_locks dir with
  | Some l -> l
  | None ->
      let l = Semaphore.create 1 in
      Hashtbl.replace t.dir_locks dir l;
      l

(* Acquire a lock, charging CPU that grows with the queue length —
   models cache-line bouncing on contended kernel locks. *)
let with_contended_lock t ~thread lock ~hold_ns f =
  let waiters = Semaphore.waiters lock in
  Semaphore.acquire lock;
  let hold =
    hold_ns *. (1.0 +. (t.p.contention_factor *. Stdlib.float_of_int waiters))
  in
  Machine.compute t.machine ~thread hold;
  let result = f () in
  Semaphore.release lock;
  result

let journal_append t ~thread =
  with_contended_lock t ~thread t.journal_lock ~hold_ns:t.p.journal_hold_ns
    (fun () ->
      t.journal_pending <- t.journal_pending + 1;
      if t.journal_pending >= t.p.journal_batch then begin
        let bytes = t.journal_pending * t.p.journal_record_bytes in
        t.journal_pending <- 0;
        t.commits <- t.commits + 1;
        let lba = t.journal_lba in
        t.journal_lba <- (t.journal_lba + 64) land 0xFFFFF;
        Blk.submit_bio_wait t.blk ~thread ~kind:Device.Write ~lba ~bytes
          ~polled:false
      end)

let journal_commit_now t ~thread =
  with_contended_lock t ~thread t.journal_lock ~hold_ns:t.p.journal_hold_ns
    (fun () ->
      if t.journal_pending > 0 then begin
        let bytes = t.journal_pending * t.p.journal_record_bytes in
        t.journal_pending <- 0;
        t.commits <- t.commits + 1;
        let lba = t.journal_lba in
        t.journal_lba <- (t.journal_lba + 64) land 0xFFFFF;
        Blk.submit_bio_wait t.blk ~thread ~kind:Device.Write ~lba ~bytes
          ~polled:false
      end)

let create t ~thread path =
  syscall t ~thread;
  Machine.compute t.machine ~thread (t.p.namei_ns +. t.p.create_cpu_ns);
  let dir = dirname path in
  with_contended_lock t ~thread (dir_lock t dir) ~hold_ns:t.p.dir_hold_ns
    (fun () ->
      match Hashtbl.find_opt t.files path with
      | Some f ->
          f.size <- 0
      | None ->
          let id = t.next_file_id in
          t.next_file_id <- id + 1;
          Hashtbl.replace t.files path { id; size = 0; extents = [] });
  journal_append t ~thread

let exists t path = Hashtbl.mem t.files path

let stat t ~thread path =
  syscall t ~thread;
  Machine.compute t.machine ~thread (t.p.namei_ns +. (costs t).Costs.hash_op_ns);
  Hashtbl.mem t.files path

let unlink t ~thread path =
  syscall t ~thread;
  Machine.compute t.machine ~thread t.p.namei_ns;
  let dir = dirname path in
  with_contended_lock t ~thread (dir_lock t dir) ~hold_ns:t.p.dir_hold_ns
    (fun () -> Hashtbl.remove t.files path);
  journal_append t ~thread

let rename t ~thread src dst =
  syscall t ~thread;
  Machine.compute t.machine ~thread (2.0 *. t.p.namei_ns);
  let dir = dirname src in
  with_contended_lock t ~thread (dir_lock t dir) ~hold_ns:t.p.dir_hold_ns
    (fun () ->
      match Hashtbl.find_opt t.files src with
      | Some f ->
          Hashtbl.remove t.files src;
          Hashtbl.replace t.files dst f
      | None -> ());
  journal_append t ~thread

let file_size t path =
  Option.map (fun f -> f.size) (Hashtbl.find_opt t.files path)

let nfiles t = Hashtbl.length t.files

let lookup_or_create t ~thread path =
  match Hashtbl.find_opt t.files path with
  | Some f -> f
  | None ->
      create t ~thread path;
      Hashtbl.find t.files path

let page_size t = Page_cache.page_size t.cache

(* Block allocation: carve a fresh extent under a sharded allocator
   lock the first time a page range is touched. *)
let lba_of_page t ~thread file page =
  let rec find = function
    | (start, base) :: rest ->
        if page >= start && page < start + region_pages then
          Some (base + (page - start))
        else find rest
    | [] -> None
  in
  match find file.extents with
  | Some lba -> lba
  | None ->
      let shard = thread mod Array.length t.alloc_locks in
      with_contended_lock t ~thread t.alloc_locks.(shard) ~hold_ns:400.0
        (fun () ->
          let start = page - (page mod region_pages) in
          let base = t.next_lba in
          t.next_lba <- t.next_lba + region_pages;
          file.extents <- (start, base) :: file.extents;
          base + (page - start))

let cache_key file page = (file.id * max_pages_per_file) + page

let writeback_evicted t ~thread page =
  match (page : Page_cache.page option) with
  | Some p when p.Page_cache.dirty -> (
      match Itbl.find t.page_owner p.Page_cache.page_index with
      | owner ->
          let page_no = p.Page_cache.page_index mod max_pages_per_file in
          let lba = lba_of_page t ~thread owner page_no in
          let w = Device.take_waiter t.wb_waiters in
          Device.set_notify w t.wb_notify;
          Blk.submit_io_to_hctx t.blk ~thread ~hctx:(thread land 15)
            ~kind:Device.Write ~lba ~bytes:(page_size t) w;
          Itbl.remove t.page_owner p.Page_cache.page_index
      | exception Not_found -> ())
  | Some p -> Itbl.remove t.page_owner p.Page_cache.page_index
  | None -> ()

let write t ~thread path ~off ~bytes ~direct =
  syscall t ~thread;
  Machine.compute t.machine ~thread (costs t).Costs.hash_op_ns;
  let f = lookup_or_create t ~thread path in
  let ps = page_size t in
  if direct then begin
    let page0 = off / ps in
    let lba = lba_of_page t ~thread f page0 in
    Blk.submit_bio_wait t.blk ~thread ~kind:Device.Write ~lba ~bytes ~polled:false
  end
  else begin
    let first = off / ps and last = (off + bytes - 1) / ps in
    for page = first to last do
      let key = cache_key f page in
      let evicted = Page_cache.write t.cache ~thread ~page_index:key in
      Itbl.replace t.page_owner key f;
      writeback_evicted t ~thread evicted
    done
  end;
  f.size <- Stdlib.max f.size (off + bytes)

let read t ~thread path ~off ~bytes ~direct =
  syscall t ~thread;
  Machine.compute t.machine ~thread (costs t).Costs.hash_op_ns;
  match Hashtbl.find_opt t.files path with
  | None -> ()
  | Some f ->
      let ps = page_size t in
      if direct then begin
        let page0 = off / ps in
        let lba = lba_of_page t ~thread f page0 in
        Blk.submit_bio_wait t.blk ~thread ~kind:Device.Read ~lba ~bytes
          ~polled:false
      end
      else begin
        let first = off / ps and last = (off + bytes - 1) / ps in
        for page = first to last do
          let key = cache_key f page in
          if not (Page_cache.read t.cache ~thread ~page_index:key) then begin
            let lba = lba_of_page t ~thread f page in
            Blk.submit_bio_wait t.blk ~thread ~kind:Device.Read ~lba ~bytes:ps
              ~polled:false;
            let evicted = Page_cache.insert_clean t.cache ~thread ~page_index:key in
            Itbl.replace t.page_owner key f;
            writeback_evicted t ~thread evicted
          end
        done
      end

let fsync t ~thread path =
  syscall t ~thread;
  match Hashtbl.find_opt t.files path with
  | None -> ()
  | Some f ->
      let ps = page_size t in
      let mine =
        List.filter
          (fun (p : Page_cache.page) ->
            p.Page_cache.page_index / max_pages_per_file = f.id)
          (Page_cache.dirty_pages t.cache)
      in
      (match mine with
      | [] -> ()
      | pages ->
          (* Write the dirty range back as one submission per page run;
             approximate with a single transfer of the total bytes. *)
          let total = List.length pages * ps in
          let page0 = List.hd pages in
          let page_no = page0.Page_cache.page_index mod max_pages_per_file in
          let lba = lba_of_page t ~thread f page_no in
          Blk.submit_bio_wait t.blk ~thread ~kind:Device.Write ~lba ~bytes:total
            ~polled:false;
          List.iter (Page_cache.clean t.cache) pages);
      journal_commit_now t ~thread

let journal_commits t = t.commits
