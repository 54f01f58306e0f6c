type t = {
  ctx_switch_ns : float;
  syscall_ns : float;
  copy_ns_per_byte : float;
  user_copy_ns_per_byte : float;
  cache_insert_ns : float;
  cache_lookup_ns : float;
  cache_shard_ns : float;
  kalloc_ns : float;
  shmem_enqueue_ns : float;
  shmem_cross_core_ns : float;
  shmem_batch_frac : float;
  poll_spin_ns : float;
  hash_op_ns : float;
  lock_ns : float;
  atomic_ns : float;
  wakeup_ns : float;
  interrupt_ns : float;
  permission_check_ns : float;
}

let default =
  {
    ctx_switch_ns = 2000.0;
    syscall_ns = 500.0;
    copy_ns_per_byte = 0.35;
    user_copy_ns_per_byte = 0.08;
    cache_insert_ns = 400.0;
    cache_lookup_ns = 250.0;
    cache_shard_ns = 120.0;
    kalloc_ns = 1200.0;
    shmem_enqueue_ns = 120.0;
    shmem_cross_core_ns = 600.0;
    shmem_batch_frac = 0.25;
    poll_spin_ns = 80.0;
    hash_op_ns = 180.0;
    lock_ns = 60.0;
    atomic_ns = 25.0;
    wakeup_ns = 1200.0;
    interrupt_ns = 900.0;
    permission_check_ns = 260.0;
  }

let copy_cost c bytes = c.copy_ns_per_byte *. Stdlib.float_of_int bytes

(* [copy_cost] is inlined here, so the cost is stored unboxed. *)
let stage_copy_cost c bytes cells i = cells.(i) <- copy_cost c bytes

let user_copy_cost c bytes = c.user_copy_ns_per_byte *. Stdlib.float_of_int bytes
