(* Multi-tenant QoS: admission control, DRR dispatch invariants, and
   end-to-end same-seed determinism with QoS engaged.

   The DRR stage is exercised bare (no engine): queued ops park on
   cells the test never parks on, so dispatch's unpark is a no-op and
   the structure can be driven as a plain data structure. Properties:

   - work conservation: after any submit/release sequence the window is
     never left with room while ops are queued;
   - bookkeeping: outstanding bytes always equal op size times
     dispatched-but-unreleased ops;
   - bounded deficit: no tenant's deficit ever exceeds one replenishment
     plus one op — the DRR service-lag bound;
   - weighted fairness: continuously-backlogged tenants' served bytes
     per unit weight stay within a constant of each other, independent
     of how many releases run;
   - determinism: a full platform run (registered tenants, a throttled
     bulk tenant, blkswitch DRR gate on the hot path) executes the
     byte-identical event sequence when repeated with the same seed. *)

open Labstor

module Tenant = Lab_ipc.Tenant

let cell = Lab_sim.Engine.make_park_cell ()

(* ---------------- DRR properties (QCheck) ---------------- *)

(* A case: op size (windowed), tenant weights, and an op script of
   submissions (by tenant) and releases. Releases beyond the number of
   dispatched-but-unreleased ops are skipped during interpretation. *)
let case_gen =
  QCheck.(
    triple
      (int_range 16385 65536) (* op bytes: throughput-class *)
      (list_of_size Gen.(int_range 1 6) (int_range 1 8)) (* weights *)
      (list_of_size Gen.(int_range 1 200)
         (pair bool (int_range 0 5)))) (* (is_submit, tenant pick) *)

let run_script ~bytes ~weights ~script =
  let table = Tenant.create () in
  let tenants =
    Array.of_list
      (List.mapi
         (fun i w ->
           Tenant.register table ~ext_id:i ~weight:w ~rate_mbps:0.0
             ~burst_bytes:65536 ~qcap:1_000_000)
         weights)
  in
  let n = Array.length tenants in
  let dispatched_total () =
    Array.fold_left (fun acc tn -> acc + Tenant.dispatched tn) 0 tenants
  in
  let released = ref 0 in
  let check_invariants () =
    let unreleased = dispatched_total () - !released in
    if Tenant.backlog table > 0
       && Tenant.inflight_bytes table < Tenant.window_bytes
    then QCheck.Test.fail_report "window has room while ops are queued";
    if Tenant.inflight_bytes table <> bytes * unreleased then
      QCheck.Test.fail_report "inflight bytes out of sync with dispatches";
    Array.iter
      (fun tn ->
        let d = Tenant.deficit tn in
        let bound =
          float_of_int
            ((Tenant.quantum_bytes * Tenant.weight tn) + bytes)
        in
        if d < 0.0 || d > bound then
          QCheck.Test.fail_report "deficit outside [0, quantum*weight + op]")
      tenants
  in
  List.iter
    (fun (is_submit, pick) ->
      (if is_submit then
         ignore
           (Tenant.submit table tenants.(pick mod n) ~bytes cell : bool)
       else if dispatched_total () - !released > 0 then begin
         Tenant.release table ~bytes;
         incr released
       end);
      check_invariants ())
    script;
  (* Drain everything: releasing all outstanding ops must eventually
     dispatch and release every queued op (work conservation end
     state). *)
  let guard = ref 0 in
  while dispatched_total () - !released > 0 && !guard < 1_000_000 do
    Tenant.release table ~bytes;
    incr released;
    incr guard;
    check_invariants ()
  done;
  if Tenant.backlog table > 0 then
    QCheck.Test.fail_report "ops left queued after full drain";
  true

let prop_drr_invariants =
  QCheck.Test.make ~count:300
    ~name:"DRR: work conservation, byte accounting, bounded deficit"
    case_gen
    (fun (bytes, weights, script) -> run_script ~bytes ~weights ~script)

(* Weighted fairness: keep k tenants continuously backlogged, run R
   releases, and compare served bytes per unit weight. DRR's service
   lag is bounded by one quantum-replenishment plus one op regardless
   of R. *)
let fairness_gen =
  QCheck.(
    triple
      (list_of_size Gen.(int_range 2 8) (int_range 1 8)) (* weights *)
      (int_range 16385 40960) (* op bytes *)
      (int_range 50 400)) (* releases *)

let prop_drr_fairness =
  QCheck.Test.make ~count:200
    ~name:"DRR: served bytes per unit weight within two quanta + two ops"
    fairness_gen
    (fun (weights, bytes, releases) ->
      let table = Tenant.create () in
      let tenants =
        Array.of_list
          (List.mapi
             (fun i w ->
               Tenant.register table ~ext_id:i ~weight:w ~rate_mbps:0.0
                 ~burst_bytes:65536 ~qcap:1_000_000)
             weights)
      in
      let n = Array.length tenants in
      (* Backlog deep enough that nobody runs dry: every tenant could
         absorb all releases alone. *)
      let per_tenant = (releases / 1) + 8 in
      for i = 0 to (n * per_tenant) - 1 do
        ignore (Tenant.submit table tenants.(i mod n) ~bytes cell : bool)
      done;
      for _ = 1 to releases do
        Tenant.release table ~bytes
      done;
      let per_weight =
        Array.map
          (fun tn ->
            float_of_int (Tenant.served_bytes tn)
            /. float_of_int (Tenant.weight tn))
          tenants
      in
      let mx = Array.fold_left Stdlib.max neg_infinity per_weight in
      let mn = Array.fold_left Stdlib.min infinity per_weight in
      (* At a snapshot mid-round, ring position puts tenants up to one
         full replenishment (a quantum per unit weight) apart, and each
         side additionally carries a deficit residual of up to another
         quantum-per-weight plus one op. *)
      let bound =
        float_of_int ((2 * Tenant.quantum_bytes) + (2 * bytes))
      in
      if mx -. mn > bound then
        QCheck.Test.fail_reportf
          "service lag %.0f exceeds 2 quanta + 2 ops = %.0f" (mx -. mn) bound;
      true)

(* ---------------- admission control ---------------- *)

let test_admission_qcap () =
  let table = Tenant.create () in
  let tn =
    Tenant.register table ~ext_id:7 ~weight:1 ~rate_mbps:0.0
      ~burst_bytes:65536 ~qcap:2
  in
  Alcotest.(check bool) "1st admitted" true
    (Tenant.admit table tn ~bytes:4096 ~now:0.0);
  Alcotest.(check bool) "2nd admitted" true
    (Tenant.admit table tn ~bytes:4096 ~now:0.0);
  Alcotest.(check bool) "3rd refused (qcap)" false
    (Tenant.admit table tn ~bytes:4096 ~now:0.0);
  Alcotest.(check int) "refusal counted" 1 (Tenant.throttled tn);
  Tenant.complete table tn ~bytes:4096 ~latency_ns:1000.0 ~ok:true;
  Alcotest.(check bool) "slot freed" true
    (Tenant.admit table tn ~bytes:4096 ~now:0.0)

let test_admission_tokens () =
  let table = Tenant.create () in
  (* 1 MB/s = 0.001 bytes/ns; burst 8 KiB. *)
  let tn =
    Tenant.register table ~ext_id:8 ~weight:1 ~rate_mbps:1.0
      ~burst_bytes:8192 ~qcap:1024
  in
  Alcotest.(check bool) "burst admits" true
    (Tenant.admit table tn ~bytes:8192 ~now:0.0);
  Alcotest.(check bool) "empty bucket refuses" false
    (Tenant.admit table tn ~bytes:8192 ~now:0.0);
  (* 8192 bytes refill at 0.001 bytes/ns -> 8.192 ms. *)
  Alcotest.(check bool) "refilled admits" true
    (Tenant.admit table tn ~bytes:8192 ~now:8.3e6)

(* An op larger than the burst is admitted from a full bucket and
   leaves it in debt; the long-run rate holds because the next op waits
   until the refill has repaid the debt. *)
let test_admission_oversized () =
  let table = Tenant.create () in
  (* 1 MB/s = 0.001 bytes/ns; burst 64 KiB; one op of 256 KiB. *)
  let tn =
    Tenant.register table ~ext_id:9 ~weight:1 ~rate_mbps:1.0
      ~burst_bytes:65536 ~qcap:1024
  in
  Alcotest.(check bool) "full bucket admits an op over the burst" true
    (Tenant.admit table tn ~bytes:262144 ~now:0.0);
  Alcotest.(check bool) "bucket in debt refuses" false
    (Tenant.admit table tn ~bytes:4096 ~now:1e6);
  (* Debt 196608 bytes: repaid at 196.608 ms, 4 KiB more by 200.704 ms. *)
  Alcotest.(check bool) "still refused while repaying" false
    (Tenant.admit table tn ~bytes:4096 ~now:196e6);
  Alcotest.(check bool) "admits once the debt is repaid" true
    (Tenant.admit table tn ~bytes:4096 ~now:201e6);
  Alcotest.(check int) "two refusals counted" 2 (Tenant.throttled tn)

let test_class_split () =
  Alcotest.(check bool) "16 KiB is latency-class" false
    (Tenant.windowed ~bytes:16384);
  Alcotest.(check bool) "16 KiB + 1 is throughput-class" true
    (Tenant.windowed ~bytes:16385)

(* ---------------- e2e determinism with QoS on ---------------- *)

let qos_spec =
  {|
mount: "blk::/qos"
rules:
  exec_mode: async
dag:
  - uuid: sched0
    mod: blkswitch_sched
    outputs: [drv0]
  - uuid: drv0
    mod: kernel_driver
|}

(* A miniature noisy-neighbor run: 4 metered readers against 4 clients
   sharing one capped bulk tenant. Returns the run's fingerprint. *)
let e2e_fingerprint ~seed =
  let platform = Platform.boot ~nworkers:2 ~seed () in
  (match Platform.mount platform qos_spec with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "mount: %s" e);
  let machine = Platform.machine platform in
  let eng = machine.Lab_sim.Machine.engine in
  for i = 0 to 3 do
    ignore (Platform.register_tenant platform ~uid:(2000 + i) ())
  done;
  ignore
    (Platform.register_tenant platform ~uid:999 ~rate_mbps:500.0 ~burst_kb:64
       ~qcap:8 ());
  let stop = ref false in
  let lat_sum = ref 0.0 in
  Platform.go platform (fun () ->
      let finished = ref 0 in
      Lab_sim.Engine.suspend (fun resume ->
          for i = 0 to 3 do
            Lab_sim.Engine.spawn eng (fun () ->
                let c =
                  Platform.client platform ~uid:(2000 + i) ~thread:i ()
                in
                Lab_sim.Engine.wait (float_of_int i *. 5_000.0);
                for k = 0 to 19 do
                  let t0 = Lab_sim.Machine.now machine in
                  (match
                     Lab_runtime.Client.read_block c ~mount:"blk::/qos"
                       ~lba:((i * 8192) + (k * 32))
                       ~bytes:16384
                   with
                  | Ok _ ->
                      lat_sum :=
                        !lat_sum +. (Lab_sim.Machine.now machine -. t0)
                  | Error _ -> ());
                  Lab_sim.Engine.wait 40_000.0
                done;
                incr finished;
                if !finished = 4 then begin
                  stop := true;
                  resume ()
                end)
          done;
          for j = 0 to 3 do
            Lab_sim.Engine.spawn eng (fun () ->
                let c =
                  Platform.client platform ~uid:999 ~thread:(8 + j) ()
                in
                let lba = ref (1_000_000 + (j * 100_000)) in
                while not !stop do
                  ignore
                    (Lab_runtime.Client.write_block c ~mount:"blk::/qos"
                       ~lba:!lba ~bytes:20480);
                  lba := !lba + 40
                done)
          done));
  let noisy =
    match Platform.tenant_for platform ~uid:999 with
    | Some tn -> tn
    | None -> Alcotest.fail "noisy tenant vanished"
  in
  ( Lab_sim.Engine.events_executed eng,
    !lat_sum,
    Tenant.throttled noisy,
    Tenant.dispatched noisy,
    Platform.now platform )

let test_e2e_deterministic () =
  let f1 = e2e_fingerprint ~seed:42 in
  let f2 = e2e_fingerprint ~seed:42 in
  let e1, l1, t1, d1, n1 = f1 and e2, l2, t2, d2, n2 = f2 in
  Alcotest.(check int) "events" e1 e2;
  Alcotest.(check (float 0.0)) "latency sum (exact)" l1 l2;
  Alcotest.(check int) "throttled" t1 t2;
  Alcotest.(check int) "dispatched" d1 d2;
  Alcotest.(check (float 0.0)) "end time (exact)" n1 n2;
  (* And the QoS machinery really was on the path. *)
  Alcotest.(check bool) "noisy throttled" true (t1 > 0);
  Alcotest.(check bool) "noisy windowed ops dispatched" true (d1 > 0)

let () =
  Alcotest.run "qos"
    [
      ( "drr",
        [
          QCheck_alcotest.to_alcotest prop_drr_invariants;
          QCheck_alcotest.to_alcotest prop_drr_fairness;
        ] );
      ( "admission",
        [
          Alcotest.test_case "qcap" `Quick test_admission_qcap;
          Alcotest.test_case "token bucket" `Quick test_admission_tokens;
          Alcotest.test_case "op over the burst" `Quick test_admission_oversized;
          Alcotest.test_case "class split" `Quick test_class_split;
        ] );
      ( "e2e",
        [ Alcotest.test_case "same-seed determinism" `Quick test_e2e_deterministic ] );
    ]
