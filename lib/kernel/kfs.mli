(** Kernel filesystem models: ext4, XFS, F2FS.

    These are behavioural models of the mechanisms that determine the
    comparisons in the paper's evaluation: per-operation syscall + VFS
    CPU work, directory-lock contention (why kernel FS metadata
    throughput plateaus with threads), journal group commit, buffered
    I/O through a page cache with write-back, and O_DIRECT.

    File contents are sizes + block extents; data bytes are not stored
    (the devices account for their transfer). *)

type flavor = Ext4 | Xfs | F2fs

type t

val flavor_name : flavor -> string

val create_fs :
  Lab_sim.Machine.t ->
  Blk.t ->
  flavor:flavor ->
  t
(** Builds a filesystem over a block layer with a 65536-page (256 MiB
    at 4 KiB pages) page cache. *)

val machine : t -> Lab_sim.Machine.t

val flavor : t -> flavor

(** {2 Metadata operations} — each charges the full kernel path on the
    calling thread and blocks as the real call would. *)

val create : t -> thread:int -> string -> unit
(** Creates a file (truncating if it exists). Serializes on the parent
    directory's lock and appends a journal record (group commit). *)

val exists : t -> string -> bool

val stat : t -> thread:int -> string -> bool
(** Charged path lookup (syscall + namei + inode fetch); returns
    existence. *)

val unlink : t -> thread:int -> string -> unit

val rename : t -> thread:int -> string -> string -> unit

val file_size : t -> string -> int option

val nfiles : t -> int

(** {2 Data operations} *)

val write : t -> thread:int -> string -> off:int -> bytes:int -> direct:bool -> unit
(** Buffered (page-cache) write unless [direct]; allocates blocks on
    first touch; evicted dirty pages trigger asynchronous write-back. *)

val read : t -> thread:int -> string -> off:int -> bytes:int -> direct:bool -> unit

val fsync : t -> thread:int -> string -> unit
(** Writes back the file's dirty pages and commits the journal. *)

val journal_commits : t -> int
(** Commit count; observable for tests. *)
