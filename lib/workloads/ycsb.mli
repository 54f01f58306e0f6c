(** YCSB-style key-value workload mixes (Cooper et al., SoCC'10) —
    the standard methodology for evaluating key-value stores, used here
    to exercise LabKVS configurations beyond the paper's LABIOS
    experiment.

    Core workloads: A (50/50 read/update), B (95/5 read-heavy),
    C (read-only), D (read-latest: inserts + reads skewed to recent
    keys). Keys follow a Zipf distribution over a preloaded keyspace. *)

type mix = A | B | C | D

val mix_name : mix -> string

val all : mix list

type kv_ops = {
  put : thread:int -> key:string -> bytes:int -> unit;
  get : thread:int -> key:string -> unit;
}

type result = {
  ops : int;
  elapsed_ns : float;
  ops_per_sec : float;
  read_latency : Lab_sim.Stats.t;
  update_latency : Lab_sim.Stats.t;
}

val run :
  Lab_sim.Machine.t ->
  mix ->
  ?nthreads:int ->
  ?records:int ->
  ?ops_per_thread:int ->
  ?theta:float ->
  kv_ops ->
  result
(** Preloads [records] keys (not timed), then runs the mix. Defaults:
    4 threads, 500 records, 500 ops/thread, 1 KiB values, Zipf skew
    0.99. Must run inside a simulated process. *)
