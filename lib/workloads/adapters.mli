(** Adapters binding the workload generators' abstract operation records
    to concrete storage under test: simulated kernel filesystems
    ({!Lab_kernel.Kfs}) and LabStor stacks (via {!Lab_runtime.Client}).
    Errors from missing files (e.g. a personality deleting the same
    victim twice) are swallowed, as filebench does. *)

val kfs_filebench : Lab_kernel.Kfs.t -> Filebench.fs_ops

val kfs_fxmark : Lab_kernel.Kfs.t -> Fxmark.fs_ops

val client_filebench :
  Lab_runtime.Client.t -> prefix:string -> Filebench.fs_ops
(** [prefix] is the LabStack mount point prepended to workload paths
    (e.g. "fs::/data"). The adapter keeps a path→fd cache, mirroring an
    application's open-file table. *)

val labios_file_backend_kfs : Lab_kernel.Kfs.t -> Labios.backend
(** Labels as UNIX files on a kernel filesystem (open/seek/write/close). *)

val labios_kvs_backend : Lab_runtime.Client.t -> Labios.backend
(** Labels as LabKVS keys: a single put per label. *)
