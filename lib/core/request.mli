(** I/O requests flowing through LabStacks.

    A request carries one operation from a well-defined interface
    (POSIX, key-value, block, or control), plus the routing state the
    Runtime needs: the originating client, the LabStack, and the current
    position in its DAG. *)

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
  | Control of int  (** opaque message, used by upgrade/dummy tests *)

type result =
  | Done
  | Fd of int
  | Size of int
  | Denied of string
  | Failed of string

type t = {
  mutable id : int;
  mutable pid : int;  (** client process *)
  mutable uid : int;  (** credentials for permission checks *)
  mutable thread : int;  (** submitting thread, for CPU accounting *)
  mutable stack_id : int;
  mutable hop : string;  (** UUID of the LabMod currently responsible *)
  mutable payload : payload;
  mutable result : result;
      (** what the stack returned, recorded by the worker that ran the
          request. Until then it is the static sentinel
          [Failed "no result recorded"], which {!make} and
          {!Pool.acquire} install and {!Pool.release} restores; a
          completion that carries it was never run. *)
  mutable hint_hctx : int option;
      (** hardware-queue steering decision made by a scheduler LabMod *)
  mutable hint_stream : int option;
      (** client-provided stream id for sequential-access detection;
          caches fall back to the pid when absent *)
  mutable prefetch : bool;
      (** speculative readahead fill issued by a cache, not a demand
          access — downstream caches must not re-trigger readahead on it *)
  mutable trace : Lab_obs.Trace.flow option;
      (** span-tracer context travelling with the request. [None] unless
          tracing is on and the id is sampled; instrumentation sites
          along the I/O path emit stage/module spans onto it. A request
          derived from another by record copy inherits the flow; a
          request synthesized with {!make} (merged op, journal flush)
          starts untraced. *)
  mutable tenant : int;
      (** dense QoS-tenant index stamped by the client at dispatch
          ([-1] = no tenant): the scheduler's per-tenant lookup is one
          array read, never a Hashtbl probe *)
  times : float array;
      (** [times.(0)] is [submitted_at], when the client built the
          request, and [times.(1)] is [scheduled_at], the
          coordinated-omission-safe latency origin: when an open-loop
          arrival process {e intended} this request to exist, which can
          be earlier than [submitted_at] if the generator fell behind
          its schedule. Latency measured from there includes the time
          the request spent waiting to even be sent — the part
          closed-loop (send-time) measurement omits. A flat float array,
          so the client stamps both in place
          ({!Lab_sim.Engine.stamp}) and no time is boxed. {!make} sets
          both to [now]; {!Pool.acquire} keeps the record's array for
          its caller to stamp. A record copy shares the array, so only
          the client that built the request writes it. *)
  mutable gen : int;
      (** pool generation: even while the record is live, odd while it
          is parked in a {!Pool}. {!make} sets 0, and {!Pool.acquire}
          and {!Pool.release} each add one, so a holder that noted the
          generation when it took the request can tell that the record
          was released, or released and re-acquired, since. A record
          copy carries its parent's generation. *)
}
(** Fields are mutable to support {!Pool} recycling; everything except
    the explicitly-mutable routing state (hop, result, hints, prefetch,
    trace) must still be treated as immutable for the lifetime of one
    operation. *)

val make :
  id:int ->
  pid:int ->
  uid:int ->
  thread:int ->
  stack_id:int ->
  now:float ->
  payload ->
  t

val bytes_of : t -> int
(** Payload size in bytes (0 for metadata/control operations). *)

val payload_bytes : payload -> int
(** Same, directly on a payload — admission control needs the size
    before any request record exists. *)

(** Free-list recycling of request records, so steady-state clients
    reuse one record per outstanding slot instead of allocating a fresh
    record per operation. {!Pool.acquire} re-initializes every field
    but [times], whose cells the caller stamps; {!Pool.release} blanks
    payload/result/trace so parked records pin nothing.

    Ownership rule: release a request only after its completion has
    been consumed by the owner. Requests abandoned in flight (deadline
    expiry, runtime crash, stale duplicate) must {e not} be released —
    the runtime may still reference them; dropping them to the GC is
    always safe. The rule is checked: every acquire and release bumps
    the record's [gen], a worker notes it when it takes a request and
    raises [Invalid_argument] if it moved by completion, and releasing
    a parked record raises [Invalid_argument] at once. *)
module Pool : sig
  type req = t

  type t

  val create : unit -> t

  val acquire :
    t ->
    id:int ->
    pid:int ->
    uid:int ->
    thread:int ->
    stack_id:int ->
    payload ->
    req

  val release : t -> req -> unit
  (** @raise Invalid_argument if [req] is already parked (a double
      release). *)
end

(** {2 Block-request geometry (adjacent-LBA merging)} *)

val block_end_lba : block_op -> int
(** First sector past the transfer. *)

val is_ok : result -> bool

val failed_errno : string -> string -> result
(** [failed_errno "EIO" detail] is [Failed "EIO: detail"]. Device faults
    travel through stacks in this errno-tagged form so client-side
    policy can distinguish retryable failures from semantic ones. *)

val errno_of_result : result -> string option
(** The leading ["E..."] token of an errno-tagged [Failed], if any.
    Ordinary failures (e.g. ["labfs: no such file"]) yield [None]. *)

val is_transient_failure : result -> bool
(** True for [EIO], [ENODEV], [ETORN] and [EAGAIN] failures — the ones
    a client may retry (with requeueing for [ENODEV], which means the
    device or queue is gone rather than a retryable media error;
    [EAGAIN] is a QoS admission refusal, retried after the backoff).
    [ETIMEDOUT] is final. *)

val torn_persisted_of_result : result -> int option
(** For an [ETORN] failure, the byte count the device persisted before
    tearing (parsed from the driver's "(n persisted)" detail); [None]
    otherwise. Lets a merge point fail only the constituent requests
    beyond the persisted prefix. *)

val pp_payload : Format.formatter -> payload -> unit

val pp_result : Format.formatter -> result -> unit
