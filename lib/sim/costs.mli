(** Calibrated software-path cost constants, in nanoseconds.

    Every timing claim in the benchmarks flows through these constants,
    so they are gathered in one place and overridable per experiment.
    Defaults are calibrated so the reproduced experiments match the
    shapes reported in the LabStor paper (see EXPERIMENTS.md). *)

type t = {
  ctx_switch_ns : float;  (** full thread context switch, incl. cache damage *)
  syscall_ns : float;  (** user/kernel mode switch round trip, no blocking *)
  copy_ns_per_byte : float;  (** copy across the user/kernel boundary *)
  user_copy_ns_per_byte : float;  (** plain userspace memcpy *)
  cache_insert_ns : float;  (** page-cache index insert *)
  cache_lookup_ns : float;  (** page-cache index lookup *)
  cache_shard_ns : float;
      (** per-shard service entry: lock word + shard descriptor pull,
          paid once per distinct shard a request touches (the cost that
          sharding spreads across cores instead of serializing) *)
  kalloc_ns : float;  (** kernel request-structure allocation (bio, etc.) *)
  shmem_enqueue_ns : float;  (** producer-side shared-memory ring enqueue *)
  shmem_cross_core_ns : float;
      (** extra cost to pull a request cache line on a different core *)
  shmem_batch_frac : float;
      (** fraction of [shmem_cross_core_ns] each request after the first
          pays when a worker pulls a whole batch from one queue (adjacent
          ring slots ride the same inter-core transfer) *)
  poll_spin_ns : float;  (** one empty polling iteration *)
  hash_op_ns : float;  (** one hashmap operation (inode table, registry) *)
  lock_ns : float;  (** uncontended lock acquire+release *)
  atomic_ns : float;  (** one atomic RMW *)
  wakeup_ns : float;  (** scheduler latency to wake a blocked thread *)
  interrupt_ns : float;  (** per-completion IRQ handling *)
  permission_check_ns : float;  (** credential + ACL walk per request *)
}

val default : t

val copy_cost : t -> int -> float
(** [copy_cost c bytes] is the boundary-copy cost for [bytes]. *)

val stage_copy_cost : t -> int -> float array -> int -> unit
(** [stage_copy_cost c bytes cells i] stores [copy_cost c bytes] in
    [cells.(i)] without boxing it, for {!Machine.compute_cell}. *)

val user_copy_cost : t -> int -> float
