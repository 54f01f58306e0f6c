type io_kind = Read | Write

type posix_op =
  | Open of { path : string; create : bool }
  | Close of { fd : int }
  | Pread of { fd : int; path : string; off : int; bytes : int }
  | Pwrite of { fd : int; path : string; off : int; bytes : int }
  | Fsync of { fd : int; path : string }
  | Create of { path : string }
  | Unlink of { path : string }
  | Rename of { src : string; dst : string }

type kv_op =
  | Put of { key : string; bytes : int }
  | Get of { key : string }
  | Delete of { key : string }

type block_op = {
  b_kind : io_kind;
  b_lba : int;
  b_bytes : int;
  b_sync : bool;  (** force-unit-access: journal/flush writes that must
                      bypass caches and reach the device *)
}

type payload =
  | Posix of posix_op
  | Kv of kv_op
  | Block of block_op
  | Control of int

type result =
  | Done
  | Fd of int
  | Size of int
  | Denied of string
  | Failed of string

(* All fields are mutable so completed requests can be recycled through
   {!Pool} instead of allocating a fresh 13-field record per operation.
   Code outside the pool still treats identity fields (id, pid, uid,
   thread, stack_id, payload, times) as immutable for the
   lifetime of one operation. *)
type t = {
  mutable id : int;
  mutable pid : int;
  mutable uid : int;
  mutable thread : int;
  mutable stack_id : int;
  mutable hop : string;
  mutable payload : payload;
  mutable result : result;
  mutable hint_hctx : int option;
      (** hardware-queue steering decision made by a scheduler LabMod *)
  mutable hint_stream : int option;
      (** client-provided stream id for sequential-access detection;
          caches fall back to the pid when absent *)
  mutable prefetch : bool;
      (** speculative readahead fill issued by a cache, not a demand
          access — downstream caches must not re-trigger readahead on it *)
  mutable trace : Lab_obs.Trace.flow option;
      (** span-tracer context travelling with the request; [None] unless
          the request id is sampled (see Lab_obs.Trace) *)
  mutable tenant : int;
      (** dense QoS-tenant index ([-1] = no tenant): one array read for
          the scheduler's per-tenant lookup instead of a Hashtbl probe *)
  times : float array;
      (** [0] submitted_at · [1] scheduled_at, the open-loop latency
          origin (earlier than [submitted_at] when the generator fell
          behind). Flat, so the client stamps both in place; a record
          copy shares the array, and only the building client writes
          it. *)
  mutable gen : int;
      (** pool generation: even while the record is live, odd while it
          is parked in a {!Pool}; bumped on every acquire and release *)
}

(* The result of a request no worker has run yet: one static value, so
   recording a result stores it and boxes no option. *)
let no_result = Failed "no result recorded"

let make ~id ~pid ~uid ~thread ~stack_id ~now payload =
  {
    id;
    pid;
    uid;
    thread;
    stack_id;
    hop = "";
    payload;
    result = no_result;
    hint_hctx = None;
    hint_stream = None;
    prefetch = false;
    trace = None;
    tenant = -1;
    times = [| now; now |];
    gen = 0;
  }

(* Free-list of recycled request records. A released request is
   re-initialized on acquire but for its times, which the acquiring
   client stamps in place, so recycling is invisible to request
   consumers; release also blanks payload/trace/result so a parked
   record pins no strings, flows or closures. Ownership rule: release
   only once the operation's completion has been consumed — a request
   abandoned in flight (deadline miss, crash) must simply be dropped
   (the GC reclaims it) because the runtime may still hold it. *)
module Pool = struct
  type req = t

  type t = { mutable stack : req array; mutable size : int }

  let create () = { stack = [||]; size = 0 }

  let acquire p ~id ~pid ~uid ~thread ~stack_id payload =
    if p.size = 0 then make ~id ~pid ~uid ~thread ~stack_id ~now:0.0 payload
    else begin
      p.size <- p.size - 1;
      let r = p.stack.(p.size) in
      r.id <- id;
      r.pid <- pid;
      r.uid <- uid;
      r.thread <- thread;
      r.stack_id <- stack_id;
      r.hop <- "";
      r.payload <- payload;
      r.result <- no_result;
      r.hint_hctx <- None;
      r.hint_stream <- None;
      r.prefetch <- false;
      r.trace <- None;
      r.tenant <- -1;
      r.gen <- r.gen + 1;
      r
    end

  let release p r =
    if r.gen land 1 = 1 then
      invalid_arg "Request.Pool.release: request already released";
    r.gen <- r.gen + 1;
    r.hop <- "";
    r.payload <- Control 0;
    r.result <- no_result;
    r.hint_hctx <- None;
    r.hint_stream <- None;
    r.trace <- None;
    r.tenant <- -1;
    if p.size >= Array.length p.stack then begin
      let n = Stdlib.max 16 (2 * Array.length p.stack) in
      let stack = Array.make n r in
      Array.blit p.stack 0 stack 0 p.size;
      p.stack <- stack
    end;
    p.stack.(p.size) <- r;
    p.size <- p.size + 1
end

let payload_bytes = function
  | Posix (Pread { bytes; _ }) | Posix (Pwrite { bytes; _ }) -> bytes
  | Kv (Put { bytes; _ }) -> bytes
  | Block { b_bytes; _ } -> b_bytes
  | Posix _ | Kv _ | Control _ -> 0

let bytes_of t = payload_bytes t.payload

(* LBAs address 512-byte sectors (the device profiles' block size);
   [block_end_lba] is the first sector past the transfer. *)
let sector_bytes = 512

let block_end_lba b = b.b_lba + ((b.b_bytes + sector_bytes - 1) / sector_bytes)

let is_ok = function Done | Fd _ | Size _ -> true | Denied _ | Failed _ -> false

(* Errno-style failures: device faults surface as [Failed "ECODE: ..."]
   so clients can pick a recovery policy without a new result variant
   (which would ripple through every LabMod). *)
let failed_errno errno detail = Failed (errno ^ ": " ^ detail)

let errno_of_result = function
  | Failed msg -> (
      match String.index_opt msg ':' with
      | Some i when i >= 2 ->
          let tok = String.sub msg 0 i in
          if
            tok.[0] = 'E'
            && String.for_all (fun ch -> ch >= 'A' && ch <= 'Z') tok
          then Some tok
          else None
      | _ -> None)
  | Done | Fd _ | Size _ | Denied _ -> None

(* Failures worth retrying: media errors (EIO), torn writes (rewrite
   the data) and vanished devices (ENODEV — requeue elsewhere or fail
   over to a mirror leg; distinct from EIO so policy can tell retry
   from fail-over) — and admission-control pushback (EAGAIN: the
   tenant's token bucket or queue cap refused the op; back off and
   retry). A blown deadline (ETIMEDOUT) is final — the time budget is
   already spent. *)
let is_transient_failure r =
  match errno_of_result r with
  | Some ("EIO" | "ENODEV" | "ETORN" | "EAGAIN") -> true
  | Some _ | None -> false

(* A torn-write failure message carries "(<n> persisted)" — the byte
   count the device actually wrote before tearing (see
   Lab_device.Device.error_to_string). Splitting a merged request back
   into its constituents needs that prefix length. *)
let torn_persisted_of_result r =
  match (errno_of_result r, r) with
  | Some "ETORN", Failed msg -> (
      match String.rindex_opt msg '(' with
      | None -> None
      | Some i -> (
          let rest = String.sub msg (i + 1) (String.length msg - i - 1) in
          match String.index_opt rest ' ' with
          | None -> None
          | Some j -> int_of_string_opt (String.sub rest 0 j)))
  | _ -> None

let pp_payload fmt = function
  | Posix (Open { path; create }) ->
      Format.fprintf fmt "open(%s%s)" path (if create then ", O_CREAT" else "")
  | Posix (Close { fd }) -> Format.fprintf fmt "close(%d)" fd
  | Posix (Pread { fd; off; bytes; _ }) ->
      Format.fprintf fmt "pread(%d, %d, %d)" fd off bytes
  | Posix (Pwrite { fd; off; bytes; _ }) ->
      Format.fprintf fmt "pwrite(%d, %d, %d)" fd off bytes
  | Posix (Fsync { fd; _ }) -> Format.fprintf fmt "fsync(%d)" fd
  | Posix (Create { path }) -> Format.fprintf fmt "create(%s)" path
  | Posix (Unlink { path }) -> Format.fprintf fmt "unlink(%s)" path
  | Posix (Rename { src; dst }) -> Format.fprintf fmt "rename(%s, %s)" src dst
  | Kv (Put { key; bytes }) -> Format.fprintf fmt "put(%s, %d)" key bytes
  | Kv (Get { key }) -> Format.fprintf fmt "get(%s)" key
  | Kv (Delete { key }) -> Format.fprintf fmt "delete(%s)" key
  | Block { b_kind; b_lba; b_bytes; _ } ->
      Format.fprintf fmt "%s(lba=%d, %d)"
        (match b_kind with Read -> "bread" | Write -> "bwrite")
        b_lba b_bytes
  | Control n -> Format.fprintf fmt "control(%d)" n

let pp_result fmt = function
  | Done -> Format.pp_print_string fmt "done"
  | Fd fd -> Format.fprintf fmt "fd=%d" fd
  | Size n -> Format.fprintf fmt "size=%d" n
  | Denied msg -> Format.fprintf fmt "denied: %s" msg
  | Failed msg -> Format.fprintf fmt "failed: %s" msg
