open Lab_kernel
open Lab_runtime

let kfs_filebench fs =
  {
    Filebench.create = (fun ~thread path -> Kfs.create fs ~thread path);
    write =
      (fun ~thread path ~off ~bytes ->
        Kfs.write fs ~thread path ~off ~bytes ~direct:false);
    read =
      (fun ~thread path ~off ~bytes ->
        Kfs.read fs ~thread path ~off ~bytes ~direct:false);
    fsync = (fun ~thread path -> Kfs.fsync fs ~thread path);
    delete =
      (fun ~thread path -> if Kfs.exists fs path then Kfs.unlink fs ~thread path);
    open_ =
      (fun ~thread path ->
        (* namei + fd setup *)
        if not (Kfs.exists fs path) then Kfs.create fs ~thread path
        else
          Lab_sim.Machine.compute (Kfs.machine fs) ~thread
            (Kfs.machine fs).Lab_sim.Machine.costs.Lab_sim.Costs.syscall_ns);
    close =
      (fun ~thread path ->
        ignore path;
        Lab_sim.Machine.compute (Kfs.machine fs) ~thread
          (Kfs.machine fs).Lab_sim.Machine.costs.Lab_sim.Costs.syscall_ns);
  }

let kfs_fxmark fs =
  {
    Fxmark.create = (fun ~thread path -> Kfs.create fs ~thread path);
    unlink =
      (fun ~thread path -> if Kfs.exists fs path then Kfs.unlink fs ~thread path);
    rename = (fun ~thread ~src ~dst -> Kfs.rename fs ~thread src dst);
  }

(* Client-side adapters keep a path → fd cache like an application's
   open-file table. *)
type fd_cache = (string, int) Hashtbl.t

let get_fd cache client path =
  match Hashtbl.find_opt cache path with
  | Some fd -> Some fd
  | None -> (
      match Client.open_file client ~create:true path with
      | Ok fd ->
          Hashtbl.replace cache path fd;
          Some fd
      | Error _ -> None)

let drop_fd cache client path =
  match Hashtbl.find_opt cache path with
  | Some fd ->
      ignore (Client.close client fd);
      Hashtbl.remove cache path
  | None -> ()

let client_filebench client ~prefix =
  let cache : fd_cache = Hashtbl.create 256 in
  let full path = prefix ^ path in
  {
    Filebench.create =
      (fun ~thread:_ path -> ignore (Client.create client (full path)));
    write =
      (fun ~thread:_ path ~off ~bytes ->
        match get_fd cache client (full path) with
        | Some fd -> ignore (Client.pwrite client ~fd ~off ~bytes)
        | None -> ());
    read =
      (fun ~thread:_ path ~off ~bytes ->
        match get_fd cache client (full path) with
        | Some fd -> ignore (Client.pread client ~fd ~off ~bytes)
        | None -> ());
    fsync =
      (fun ~thread:_ path ->
        match get_fd cache client (full path) with
        | Some fd -> ignore (Client.fsync client ~fd)
        | None -> ());
    delete =
      (fun ~thread:_ path ->
        drop_fd cache client (full path);
        ignore (Client.unlink client (full path)));
    open_ = (fun ~thread:_ path -> ignore (get_fd cache client (full path)));
    close = (fun ~thread:_ path -> drop_fd cache client (full path));
  }

let labios_file_backend_kfs fs =
  let m = Kfs.machine fs in
  let syscall ~thread =
    Lab_sim.Machine.compute m ~thread m.Lab_sim.Machine.costs.Lab_sim.Costs.syscall_ns
  in
  Labios.file_backend ~name:(Kfs.flavor_name (Kfs.flavor fs))
    ~open_:(fun ~thread key ->
      if not (Kfs.exists fs key) then Kfs.create fs ~thread key else syscall ~thread)
    ~seek:(fun ~thread _ _ -> syscall ~thread)
    ~write:(fun ~thread key ~off ~bytes ->
      Kfs.write fs ~thread key ~off ~bytes ~direct:false)
    ~close:(fun ~thread _ -> syscall ~thread)

let labios_kvs_backend client =
  {
    Labios.name = "labkvs";
    put_label =
      (fun ~thread:_ ~key ~bytes -> ignore (Client.put client ~key ~bytes));
  }
