(** Parallel-filesystem model (OrangeFS-style) plus the VPIC and
    BD-CATS workloads of §IV-C.

    Files are striped across data servers; a dedicated metadata server
    tracks files and stripe placement. The local I/O stack of each
    server is supplied as callbacks, so the metadata server can be
    backed by a kernel filesystem or by a LabStor stack — the variable
    the paper's Figure 9(a) changes. Clients reach servers over a
    simple network model (per-message latency + per-server link
    bandwidth). *)

type md_ops = {
  md_create : thread:int -> string -> unit;  (** new file *)
  md_extend : thread:int -> string -> unit;
      (** stripe-map insert on the write path (a keyval put in
          OrangeFS's dbpf — as expensive as a create) *)
  md_lookup : thread:int -> string -> unit;  (** read-path resolution *)
}

type data_ops = {
  srv_write : server:int -> off:int -> bytes:int -> unit;
  srv_read : server:int -> off:int -> bytes:int -> unit;
}

type config = {
  stripe_bytes : int;  (** default 64 KiB *)
  nservers : int;
  net_latency_ns : float;
  net_bw_bytes_per_ns : float;  (** per server link *)
  stripes_per_md_op : int;  (** stripe-map batching at the MD server *)
}

type t

val create : Lab_sim.Machine.t -> ?config:config -> md_ops -> data_ops -> t

type result = {
  elapsed_ns : float;
  total_bytes : int;
  bandwidth_mib_s : float;
  md_ops : int;
}

val vpic :
  t -> procs:int -> steps:int -> bytes_per_proc_step:int -> result
(** VPIC particle-simulation checkpoint pattern: every process writes
    its particle data each timestep. Must run inside a process. *)

val bdcats : t -> procs:int -> steps:int -> bytes_per_proc_step:int -> result
(** BD-CATS parallel clustering: reads the dataset VPIC produced. *)
