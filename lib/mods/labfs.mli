(** LabFS: the paper's example POSIX filesystem LabMod.

    Log-structured and crash-consistent: instead of on-disk inodes and
    bitmaps, every metadata mutation appends a record to a per-instance
    log; the in-memory inode hashmap is a pure function of the log and
    is reconstructed by {!replay} on recovery. Block allocation uses the
    scalable per-worker allocator ({!Block_alloc}) so concurrent workers
    never contend. Log pages are flushed downstream when they fill
    (group commit) and on fsync. *)

open Lab_core

type log_record =
  | Rec_create of { path : string; ino : int }
  | Rec_write of { ino : int; first_block : int; nblocks : int; size : int }
  | Rec_unlink of { path : string }
  | Rec_rename of { src : string; dst : string }

type inode = {
  ino : int;
  mutable size : int;
  mutable first_block : int;  (** -1 while unallocated *)
  mutable nblocks : int;
}

val factory : total_blocks:int -> nworkers:int -> unit -> Registry.factory
(** Blocks are 4 KiB; [nworkers] (at least 1) sets the block
    allocator's per-worker pools. LabFS reads no attributes. *)

(** {2 Introspection for tests, recovery and benchmarks} *)

val log_of : Labmod.t -> log_record list
(** The metadata log, oldest record first. *)

val inodes_of : Labmod.t -> (string * inode) list

val replay : log_record list -> (string, inode) Hashtbl.t
(** Rebuilds the inode table from a log (crash recovery). The result of
    replaying a LabFS instance's log always equals its live table. *)

val file_count : Labmod.t -> int

val commit_failures : Labmod.t -> int
(** Journal commits (group-commit flushes and fsync flushes) that failed
    at the device. Each failure aborts exactly the records the failed
    flush carried — they are dropped from the log and the inode table is
    rebuilt from the surviving records via {!replay}, so the live table
    keeps agreeing with what stable storage would replay to. *)

val lookup : Labmod.t -> string -> inode option

val allocator : Labmod.t -> Block_alloc.t

val provenance : Labmod.t -> string -> log_record list
(** Provenance tracking: the chronological history of the file
    currently reachable at [path] — its creation, every extent
    appended, and the renames that led to its current name. Empty if
    the path does not exist. *)
