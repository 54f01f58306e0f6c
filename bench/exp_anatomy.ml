(* Figure 4(a) — I/O stack anatomy.

   A traditional-looking LabStack (permissions -> LabFS -> LRU cache ->
   No-Op scheduler -> Kernel Driver) serves 4 KiB reads and writes on
   NVMe with a single worker. Every request is traced; per-LabMod
   exclusive time (a module's span minus its direct children) and
   device time come from the spans via Profile.exclusive, the same fold
   behind the flamegraph and anatomy2, and IPC time is the remainder of
   the client-observed latency. *)

open Labstor

let spec =
  {|
mount: "fs::/anatomy"
dag:
  - uuid: an-perm
    mod: permissions
    outputs: [an-fs]
  - uuid: an-fs
    mod: labfs
    outputs: [an-lru]
  - uuid: an-lru
    mod: lru_cache
    attrs:
      capacity_mb: 1
      write_through: true    # the paper's anatomy measures the full write path
    outputs: [an-sched]
  - uuid: an-sched
    mod: noop_sched
    outputs: [an-drv]
  - uuid: an-drv
    mod: kernel_driver
|}

let ops = 512

let file_bytes = 16 * 1024 * 1024  (* far larger than the 1 MiB cache *)

type breakdown = {
  self_ns : (string, float) Hashtbl.t;
      (* exclusive time per span name: LabMod names and "device" *)
  mutable client : float;  (* client-observed latency *)
}

let collect kind =
  let platform =
    Platform.boot ~nworkers:1
      ~config:{ Runtime.Runtime.default_config with trace_sample = 1 }
      ()
  in
  ignore (Platform.mount_exn platform spec);
  let tracer = Platform.tracer platform in
  let b = { self_ns = Hashtbl.create 8; client = 0.0 } in
  Platform.go platform (fun () ->
      let c = Platform.client platform ~thread:0 () in
      let fd =
        match Runtime.Client.open_file c ~create:true "fs::/anatomy/f" with
        | Ok fd -> fd
        | Error e -> failwith e
      in
      (* Populate the file so reads have something to miss on. *)
      ignore (Runtime.Client.pwrite c ~fd ~off:0 ~bytes:file_bytes);
      Obs.Trace.clear tracer;
      let rng = Sim.Rng.create 11 in
      for _ = 1 to ops do
        let off = Sim.Rng.int rng (file_bytes / 4096) * 4096 in
        let t0 = Platform.now platform in
        (match kind with
        | `Write -> ignore (Runtime.Client.pwrite c ~fd ~off ~bytes:4096)
        | `Read -> ignore (Runtime.Client.pread c ~fd ~off ~bytes:4096));
        b.client <- b.client +. (Platform.now platform -. t0)
      done);
  (* Every LabMod span minus its direct children is that module's own
     time; the driver's child is the device span, so its exclusive time
     is pure driver software. *)
  List.iter
    (fun (_, spans) ->
      List.iter
        (fun (sp : Obs.Profile.span) ->
          let e = sp.Obs.Profile.sp_ev in
          if e.Obs.Trace.ev_cat = "mod" || e.Obs.Trace.ev_cat = "device" then begin
            let name = e.Obs.Trace.ev_name in
            let prev = Option.value (Hashtbl.find_opt b.self_ns name) ~default:0.0 in
            Hashtbl.replace b.self_ns name (prev +. sp.Obs.Profile.sp_self_ns)
          end)
        spans)
    (Obs.Profile.exclusive (Obs.Trace.events tracer));
  b

let print_breakdown label b =
  let per x = x /. float_of_int ops in
  let self name = per (Option.value (Hashtbl.find_opt b.self_ns name) ~default:0.0) in
  let stack = Hashtbl.fold (fun _ v acc -> acc +. per v) b.self_ns 0.0 in
  let ipc = Float.max 0.0 (per b.client -. stack) in
  let total = per b.client in
  let row name v =
    [ name; Printf.sprintf "%8.0f" v; Printf.sprintf "%5.1f%%" (100.0 *. v /. total) ]
  in
  Printf.printf "\n%s (avg %.1f us/op):\n" label (total /. 1e3);
  Bench_util.print_table [ 22; 10; 8 ]
    [ "component"; "ns/op"; "share" ]
    [
      row "device I/O" (self "device");
      row "page cache (LRU)" (self "lru_cache");
      row "IPC (shmem queues)" ipc;
      row "filesystem metadata" (self "labfs");
      row "permission checks" (self "permissions");
      row "I/O scheduler (NoOp)" (self "noop_sched");
      row "driver (software)" (self "kernel_driver");
    ];
  let software = total -. self "device" in
  Printf.printf "  software total: %.0f ns = %.0f%% of op latency\n" software
    (100.0 *. software /. total)

let run () =
  Bench_util.heading "fig4a" "I/O stack anatomy: 4 KiB ops through LabFS on NVMe, 1 worker";
  print_breakdown "WRITE" (collect `Write);
  print_breakdown "READ" (collect `Read);
  Bench_util.note
    "paper shape: device I/O dominates; software ~34%%; cache ~17%% (copies);";
  Bench_util.note "IPC ~8%%; FS metadata ~3%%; permissions ~3%%; driver ~1%%."
