(* Same-seed rounds in one process: what labbench's round check needs
   from the library. *)

let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* Two platforms booted in turn in one process allocate alike: the
   same 1,000 reads on a fresh async stack (cache, scheduler, driver;
   every other one given an open-loop origin) cost the same minor words
   on each, from their first request. A pool, table or sentinel that
   lived at module level and warmed lazily would make the first
   platform allocate more; labbench's same-seed rounds check exactly
   this. A suite of its own, so that nothing run before it in the
   process has warmed anything. *)
let test_two_platforms_allocate_alike () =
  let mount = "blk::/alike" in
  let spec =
    Printf.sprintf
      {|
mount: "%s"
rules:
  exec_mode: async
dag:
  - uuid: al-cache
    mod: lru_cache
    attrs:
      capacity_mb: 4
    outputs: [al-sched]
  - uuid: al-sched
    mod: noop_sched
    outputs: [al-drv]
  - uuid: al-drv
    mod: kernel_driver
|}
      mount
  in
  let round () =
    let p = Labstor.Platform.boot ~seed:7 ~nworkers:2 () in
    ignore (ok (Labstor.Platform.mount p spec));
    Labstor.Platform.go p (fun () ->
        let c = Labstor.Platform.client p ~thread:0 () in
        let w0 = Gc.minor_words () in
        for i = 0 to 999 do
          let lba = 8 * (i land 127) in
          if i land 1 = 0 then
            ignore (ok (Lab_runtime.Client.read_block c ~mount ~lba ~bytes:4096))
          else
            ignore
              (ok
                 (Lab_runtime.Client.read_block c
                    ~scheduled_at:(Labstor.Platform.now p -. 100.0)
                    ~mount ~lba ~bytes:4096))
        done;
        (Gc.minor_words () -. w0, Labstor.Platform.now p))
  in
  let words, t_end = round () in
  let words', t_end' = round () in
  Alcotest.(check (float 0.0)) "same virtual end" t_end t_end';
  Alcotest.(check (float 0.0)) "same minor words on the second platform" words words'

let () =
  Alcotest.run "rounds"
    [
      ( "rounds",
        [
          Alcotest.test_case "two platforms allocate alike" `Quick
            test_two_platforms_allocate_alike;
        ] );
    ]
