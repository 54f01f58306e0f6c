(** LabFS's scalable per-worker block allocator.

    Device blocks are divided evenly among the worker pool; each worker
    allocates from its own partition without synchronization. A worker
    that runs dry steals a configurable number of blocks from the
    richest peer. Shrinking the pool returns a decommissioned worker's
    free blocks to the survivors; growing lets new workers steal their
    initial stock (§III-E). *)

type t

val create : total_blocks:int -> workers:int -> ?steal_chunk:int -> unit -> t
(** Default [steal_chunk] is 16384 blocks. *)

val workers : t -> int

val alloc : t -> worker:int -> int -> int list
(** [alloc t ~worker n] returns [n] distinct block numbers, stealing
    from peers if the worker's partition is exhausted.
    @raise Failure when the device is genuinely full. *)

val free : t -> worker:int -> int list -> unit

val free_blocks : t -> int
(** Total free blocks across all workers. *)

val resize : t -> workers:int -> unit
(** Re-partitions for a new worker count, preserving all free blocks. *)

val steals : t -> int
(** Number of steal events, for observability. *)
