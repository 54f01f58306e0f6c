(** LabStor in OCaml — top-level facade.

    Re-exports every layer of the platform under one roof:

    - {!Sim}: discrete-event simulation substrate (engine, CPU model,
      cost constants, fault plans, RNG)
    - {!Device}: storage device models (HDD / SATA SSD / NVMe / PMEM)
    - {!Ipc}: shared-memory regions and queue pairs
    - {!Kernel}: simulated Linux kernel (block layer, page cache,
      ext4/XFS/F2FS models, POSIX/AIO/libaio/io_uring APIs)
    - {!Core}: the LabMod framework, Module Registry/Manager, LabStack
      specs and Namespace
    - {!Mods}: stock LabMods (LabFS, LabKVS, LRU cache, permissions,
      compression, schedulers, drivers)
    - {!Runtime}: workers, Work Orchestrator, client library
    - {!Workloads}: FIO / FxMark / Filebench / LABIOS / PFS generators
    - {!Obs}: span tracer, metrics registry, the [Hist] histogram every
      percentile comes from, and their exporters
    - {!Platform}: one-call boot + mount + client entry point *)

module Sim = Lab_sim
module Obs = Lab_obs
module Device = Lab_device
module Ipc = Lab_ipc
module Kernel = Lab_kernel
module Core = Lab_core
module Mods = Lab_mods
module Runtime = Lab_runtime
module Workloads = Lab_workloads
module Platform = Platform

(* Kept for labbench/layers.ml, which reads the device's service
   histogram through [Stats.count]/[Stats.sum]; goes when labbench moves
   to [Obs.Hist]. Nothing else may use it (bin/check.sh guards that). *)
module Stats = struct
  let count = Lab_obs.Hist.count
  let sum = Lab_obs.Hist.sum
end
