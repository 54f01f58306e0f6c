(* Bechamel microbenchmarks of the core data structures: these are real
   (wall-clock) measurements of the OCaml implementations, not
   simulation results. *)

open Bechamel
open Toolkit

let test_ring =
  Test.make ~name:"ring push+pop"
    (Staged.stage (fun () ->
         let r = Lab_ipc.Ring.create ~capacity:256 in
         for i = 0 to 255 do
           ignore (Lab_ipc.Ring.try_push r i)
         done;
         for _ = 0 to 255 do
           ignore (Lab_ipc.Ring.try_pop r)
         done))

(* The engine's event queue on the same key pattern. Like the engine,
   it never pushes before the last popped time, and seqs stay unique
   across iterations. *)
let test_evq =
  let q = Lab_sim.Evq.create () in
  let seq = ref 0 in
  Test.make ~name:"evq push+pop (256)"
    (Staged.stage (fun () ->
         let base = q.Lab_sim.Evq.key_out.(0) in
         for i = 0 to 255 do
           incr seq;
           q.Lab_sim.Evq.key_in.(0) <-
             base +. float_of_int ((i * 7919) land 1023);
           Lab_sim.Evq.push q ~seq:!seq ~slot:i
         done;
         while Lab_sim.Evq.pop q >= 0 do
           ()
         done))

let test_lru =
  Test.make ~name:"lru put+find (256)"
    (Staged.stage (fun () ->
         let l = Lab_sim.Lru.create ~capacity:128 () in
         for i = 0 to 255 do
           ignore (Lab_sim.Lru.put l i i)
         done;
         for i = 0 to 255 do
           ignore (Lab_sim.Lru.find l i)
         done))

let lz_input =
  Bytes.init 4096 (fun i -> Char.chr (((i / 16) * 31) land 0xFF))

let test_lz77 =
  Test.make ~name:"lz77 compress 4KiB"
    (Staged.stage (fun () -> ignore (Lab_mods.Lz77.compress lz_input)))

let test_alloc =
  Test.make ~name:"block alloc+free (64 blocks)"
    (Staged.stage (fun () ->
         let a = Lab_mods.Block_alloc.create ~total_blocks:100000 ~workers:4 () in
         let blocks = Lab_mods.Block_alloc.alloc a ~worker:0 64 in
         Lab_mods.Block_alloc.free a ~worker:0 blocks))

let yaml_doc =
  "mount: \"fs::/x\"\ndag:\n  - uuid: a\n    mod: labfs\n    outputs: [b]\n  - uuid: b\n    mod: kernel_driver"

let test_yaml =
  Test.make ~name:"yamlite parse stack spec"
    (Staged.stage (fun () -> ignore (Lab_core.Yamlite.parse yaml_doc)))

let benchmark test =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  Analyze.all ols Instance.monotonic_clock raw

let run () =
  Bench_util.heading "micro" "Bechamel microbenchmarks (host wall-clock, ns/op)";
  let tests =
    [ test_ring; test_evq; test_lru; test_lz77; test_alloc; test_yaml ]
  in
  List.iter
    (fun t ->
      let results = benchmark t in
      Hashtbl.iter
        (fun name result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-32s %12.1f ns/op\n" name est
          | _ -> Printf.printf "  %-32s (no estimate)\n" name)
        results)
    tests
