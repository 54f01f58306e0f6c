open Lab_core
open Lab_device

type backend = { blk : Lab_kernel.Blk.t; device : Device.t }

let backend_of_device machine device =
  { blk = Lab_kernel.Blk.create machine device ~sched:Lab_kernel.Blk.Noop; device }

let install ~env registry ~machine ~backends ~default_backend ~nworkers
    ~lvm_rebuild_rate_mbps =
  let default =
    match List.assoc_opt default_backend backends with
    | Some b -> b
    | None -> invalid_arg "Mods_env.install: unknown default backend"
  in
  let reg name f = Registry.register_factory registry ~name f in
  let register_drivers suffix b =
    reg ("kernel_driver" ^ suffix) (Kernel_driver.factory ~blk:b.blk);
    if (Device.profile b.device).Profile.supports_polling then
      reg ("spdk" ^ suffix) (Spdk_driver.factory ~device:b.device);
    if (Device.profile b.device).Profile.byte_addressable then
      reg ("dax" ^ suffix) (Dax_driver.factory ~device:b.device)
  in
  List.iter (fun (bname, b) -> register_drivers (":" ^ bname) b) backends;
  register_drivers "" default;
  let total_blocks blk = Profile.blocks (Device.profile (Lab_kernel.Blk.device blk)) in
  reg "labfs" (Labfs.factory ~total_blocks:(total_blocks default.blk) ~nworkers ());
  reg "labkvs" (Labkvs.factory ~total_blocks:(total_blocks default.blk) ~nworkers);
  reg "lru_cache" (Lru_cache.factory ~env ());
  reg "arc_cache" (Arc_cache.factory ~env ());
  reg "permissions" Permissions.factory;
  reg "compress" Compress_mod.factory;
  reg "consistency" Consistency_mod.factory;
  let nqueues = Device.n_hw_queues default.device in
  reg "noop_sched" (Noop_sched.factory ~nqueues);
  reg "blkswitch_sched"
    (Blkswitch_sched.factory ~env ~nqueues ());
  reg "lab_lvm"
    (Lab_lvm.factory ~env ~machine
       ~legs:(List.map (fun (bname, b) -> (bname, b.blk, b.device)) backends)
       ~rebuild_rate_mbps:lvm_rebuild_rate_mbps ());
  reg "dummy" (Dummy_mod.factory ())
