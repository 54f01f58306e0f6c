(* Crash recovery: the Runtime dies under a buggy LabMod and is
   restarted by the administrator; the application survives. Its client
   library detects the offline Runtime in Wait, blocks until restart,
   invokes StateRepair (LabFS rebuilds its inode table by replaying the
   metadata log), and retries the interrupted request.

   Runtime crashes are only one half of the failure model: device
   faults (EIO, torn writes, offline queues, lost commands) flow
   through the same client retry loop — see the "Fault model" section
   of DESIGN.md and `bench/main.exe faults` for that half.

   Run with: dune exec examples/crash_recovery.exe *)

open Labstor

let spec =
  {|
mount: "fs::/data"
dag:
  - uuid: rfs
    mod: labfs
    outputs: [rsched]
  - uuid: rsched
    mod: noop_sched
    outputs: [rdrv]
  - uuid: rdrv
    mod: kernel_driver
|}

let () =
  let platform = Platform.boot ~nworkers:2 () in
  ignore (Platform.mount_exn platform spec);
  let rt = Platform.runtime platform in
  Platform.go platform (fun () ->
      let m = Platform.machine platform in
      let client = Platform.client platform ~thread:0 () in
      for i = 1 to 100 do
        match Runtime.Client.create client (Printf.sprintf "fs::/data/pre%d" i) with
        | Ok () -> ()
        | Error e -> failwith e
      done;
      Printf.printf "t=%.2f ms: 100 files created\n" (Platform.now platform /. 1e6);

      (* A "buggy LabMod" takes the Runtime down; the admin restarts it
         2 ms later. *)
      Sim.Engine.spawn m.Sim.Machine.engine (fun () ->
          Runtime.Runtime.crash rt;
          Printf.printf "t=%.2f ms: RUNTIME CRASHED\n" (Platform.now platform /. 1e6);
          Sim.Engine.wait 2e6;
          Runtime.Runtime.restart rt;
          Printf.printf "t=%.2f ms: runtime restarted by admin\n"
            (Platform.now platform /. 1e6));
      Sim.Engine.wait 1000.0;

      (* This call hits the dead Runtime, waits, repairs, retries. *)
      (match Runtime.Client.create client "fs::/data/during-crash" with
      | Ok () ->
          Printf.printf "t=%.2f ms: request retried successfully after repair\n"
            (Platform.now platform /. 1e6)
      | Error e -> failwith e);

      let fs =
        Option.get (Core.Registry.find (Runtime.Runtime.registry rt) "rfs")
      in
      Printf.printf "inode table after StateRepair: %d files (log replay intact)\n"
        (Mods.Labfs.file_count fs);
      assert (Mods.Labfs.lookup fs "fs::/data/pre1" <> None);
      assert (Mods.Labfs.lookup fs "fs::/data/during-crash" <> None);
      print_endline "all pre-crash files and the in-flight request survived")
