(* Tests for lab_core: YAML subset parser, LabMod framework, registry,
   stack specs + validation, namespace resolution, module manager
   upgrade protocols. *)

open Lab_sim
open Lab_core

let in_sim f =
  let m = Machine.create ~ncores:4 () in
  let result = ref None in
  Machine.spawn m (fun () -> result := Some (f m));
  Machine.run m;
  match !result with Some r -> r | None -> Alcotest.fail "process never finished"

(* ------------------------------------------------------------------ *)
(* Yamlite                                                             *)
(* ------------------------------------------------------------------ *)

let yaml = Alcotest.testable (fun fmt v -> Fmt.string fmt (Yamlite.to_string v)) ( = )

let test_yaml_scalars () =
  Alcotest.check yaml "int" (Yamlite.Int 42) (Yamlite.parse "42");
  Alcotest.check yaml "float" (Yamlite.Float 2.5) (Yamlite.parse "2.5");
  Alcotest.check yaml "bool" (Yamlite.Bool true) (Yamlite.parse "true");
  Alcotest.check yaml "null" Yamlite.Null (Yamlite.parse "~");
  Alcotest.check yaml "empty" Yamlite.Null (Yamlite.parse "");
  Alcotest.check yaml "string" (Yamlite.Str "hello world") (Yamlite.parse "hello world");
  Alcotest.check yaml "quoted" (Yamlite.Str "a: b") (Yamlite.parse "\"a: b\"")

let test_yaml_map () =
  let doc = "name: labfs\nversion: 2\nenabled: true" in
  Alcotest.check yaml "flat map"
    (Yamlite.Map
       [ ("name", Yamlite.Str "labfs"); ("version", Yamlite.Int 2); ("enabled", Yamlite.Bool true) ])
    (Yamlite.parse doc)

let test_yaml_nested () =
  let doc = "rules:\n  exec_mode: async\n  priority: 3\nmount: \"fs::/a\"" in
  let v = Yamlite.parse doc in
  Alcotest.(check (option string)) "mount"
    (Some "fs::/a")
    (Option.bind (Yamlite.find v "mount") Yamlite.get_string);
  let rules = Option.get (Yamlite.find v "rules") in
  Alcotest.(check (option string)) "exec_mode" (Some "async")
    (Option.bind (Yamlite.find rules "exec_mode") Yamlite.get_string);
  Alcotest.(check (option int)) "priority" (Some 3)
    (Option.bind (Yamlite.find rules "priority") Yamlite.get_int)

let test_yaml_block_list () =
  let doc = "- one\n- 2\n- true" in
  Alcotest.check yaml "list"
    (Yamlite.List [ Yamlite.Str "one"; Yamlite.Int 2; Yamlite.Bool true ])
    (Yamlite.parse doc)

let test_yaml_flow_list () =
  let doc = "admins: [root, alice, bob]" in
  let v = Yamlite.parse doc in
  Alcotest.check yaml "flow list"
    (Yamlite.List [ Yamlite.Str "root"; Yamlite.Str "alice"; Yamlite.Str "bob" ])
    (Option.get (Yamlite.find v "admins"))

let test_yaml_list_of_maps () =
  let doc =
    "dag:\n  - uuid: a\n    mod: labfs\n    outputs: [b]\n  - uuid: b\n    mod: lru" in
  let v = Yamlite.parse doc in
  match Yamlite.find v "dag" with
  | Some (Yamlite.List [ first; second ]) ->
      Alcotest.(check (option string)) "first uuid" (Some "a")
        (Option.bind (Yamlite.find first "uuid") Yamlite.get_string);
      Alcotest.(check (option string)) "second mod" (Some "lru")
        (Option.bind (Yamlite.find second "mod") Yamlite.get_string);
      Alcotest.check yaml "outputs"
        (Yamlite.List [ Yamlite.Str "b" ])
        (Option.get (Yamlite.find first "outputs"))
  | _ -> Alcotest.fail "expected a 2-item dag list"

let test_yaml_comments () =
  let doc = "# header\nkey: value # trailing\nother: 1" in
  Alcotest.check yaml "comments stripped"
    (Yamlite.Map [ ("key", Yamlite.Str "value"); ("other", Yamlite.Int 1) ])
    (Yamlite.parse doc)

let test_yaml_nested_attrs () =
  let doc = "- uuid: lru-1\n  attrs:\n    capacity_mb: 64\n    policy: lru" in
  match Yamlite.parse doc with
  | Yamlite.List [ item ] ->
      let attrs = Option.get (Yamlite.find item "attrs") in
      Alcotest.(check (option int)) "capacity" (Some 64)
        (Option.bind (Yamlite.find attrs "capacity_mb") Yamlite.get_int)
  | _ -> Alcotest.fail "expected singleton list"

(* Round-trip property: serialize then parse returns the same value.
   Generator stays within the supported subset: string keys, scalars,
   non-empty maps, lists of scalars or maps. *)
let yaml_gen =
  let open QCheck.Gen in
  let key = map (fun s -> "k" ^ s) (string_size ~gen:(char_range 'a' 'z') (int_range 0 6)) in
  let scalar =
    oneof
      [
        return Yamlite.Null;
        map (fun b -> Yamlite.Bool b) bool;
        map (fun i -> Yamlite.Int i) int;
        map (fun s -> Yamlite.Str s)
          (oneof
             [
               string_size ~gen:(char_range 'a' 'z') (int_range 0 8);
               oneofl [ "true"; "42"; "~"; "a: b"; "- dash"; "x#y"; " pad " ];
             ]);
      ]
  in
  let rec value depth =
    if depth = 0 then scalar
    else
      frequency
        [
          (3, scalar);
          (* Lists of scalars (rendered flow) or of maps (dash items);
             block lists directly inside lists are outside the subset. *)
          ( 2,
            map (fun l -> Yamlite.List l)
              (list_size (int_range 0 4)
                 (if depth >= 2 then
                    oneof [ scalar; map2 (fun k v -> Yamlite.Map [ (k, v) ]) key scalar ]
                  else scalar)) );
          ( 2,
            map
              (fun kvs ->
                (* Distinct keys: the parser keeps all, assoc order matters. *)
                let seen = Hashtbl.create 8 in
                Yamlite.Map
                  (List.filter
                     (fun (k, _) ->
                       if Hashtbl.mem seen k then false
                       else begin
                         Hashtbl.replace seen k ();
                         true
                       end)
                     kvs))
              (list_size (int_range 1 4) (pair key (value (depth - 1)))) );
        ]
  in
  map (fun kvs ->
      let seen = Hashtbl.create 8 in
      Yamlite.Map
        (List.filter
           (fun (k, _) ->
             if Hashtbl.mem seen k then false
             else begin
               Hashtbl.replace seen k ();
               true
             end)
           kvs))
    (list_size (int_range 1 5) (pair key (value 2)))

let prop_yaml_roundtrip =
  QCheck.Test.make ~name:"yamlite: parse (serialize v) = v" ~count:300
    (QCheck.make ~print:Yamlite.to_string yaml_gen)
    (fun v -> Yamlite.parse (Yamlite.serialize v) = v)

let test_yaml_parse_error () =
  (try
     ignore (Yamlite.parse "just scalar\nkey: value");
     Alcotest.fail "expected parse error"
   with Yamlite.Parse_error _ -> ());
  (* A flow map is refused at its line, in a value or a flow list;
     quoted, it is a string, and a string that starts with one is
     serialized quoted. *)
  List.iter
    (fun text ->
      match Yamlite.parse text with
      | _ -> Alcotest.failf "flow map accepted: %S" text
      | exception Yamlite.Parse_error { line; _ } ->
          Alcotest.(check int) ("line of " ^ text) 2 line)
    [ "a: 1\nrules: {exec_mode: sync}"; "a: 1\nl: [x, {y}]" ];
  let v = Yamlite.Map [ ("m", Yamlite.Str "{a: b}") ] in
  Alcotest.(check bool) "quoted flow map is a string" true
    (Yamlite.parse "m: \"{a: b}\"" = v && Yamlite.parse (Yamlite.serialize v) = v)

(* ------------------------------------------------------------------ *)
(* LabMod + Registry                                                   *)
(* ------------------------------------------------------------------ *)

type Labmod.state += Counter of int

let counter_factory ?(bump = 1) () : Registry.factory =
 fun ~uuid ~attrs ->
  ignore attrs;
  Labmod.make ~name:"counter" ~uuid ~mod_type:Labmod.Control ~state:(Counter 0)
    {
      Labmod.operate =
        (fun m _ctx _req ->
          (match m.Labmod.state with
          | Counter n -> m.Labmod.state <- Counter (n + bump)
          | _ -> ());
          Request.Done);
      est_processing_time = (fun _ _ -> 100.0);
      state_update = (fun old -> old);
      state_repair = (fun _ -> ());
    }

let dummy_ctx m =
  {
    Labmod.machine = m;
    thread = 0;
    forward = (fun _ -> Request.Done);
    forward_async = (fun _ _ -> ());
  }

let mk_req ?(payload = Request.Control 0) id =
  Request.make ~id ~pid:1 ~uid:0 ~thread:0 ~stack_id:1 ~now:0.0 payload

let test_registry_instantiate_once () =
  let r = Registry.create () in
  Registry.register_factory r ~name:"counter" (counter_factory ());
  let a = Result.get_ok (Registry.instantiate r ~mod_name:"counter" ~uuid:"c1" ~attrs:[]) in
  let b = Result.get_ok (Registry.instantiate r ~mod_name:"counter" ~uuid:"c1" ~attrs:[]) in
  Alcotest.(check bool) "same instance for same uuid" true (a == b);
  let c = Result.get_ok (Registry.instantiate r ~mod_name:"counter" ~uuid:"c2" ~attrs:[]) in
  Alcotest.(check bool) "new uuid, new instance" true (a != c);
  Alcotest.(check int) "two instances" 2 (List.length (Registry.instances r));
  Alcotest.(check int) "by name" 2 (List.length (Registry.instances_of_name r "counter"))

let test_registry_missing_factory () =
  let r = Registry.create () in
  match Registry.instantiate r ~mod_name:"ghost" ~uuid:"g1" ~attrs:[] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

(* One table decodes a module's attributes: values fold over the
   defaults, and an unknown key, a mistyped value, a rejected one or a
   key given twice is refused, naming the module and the key. *)
let test_decode_attrs () =
  let table =
    Keys.
      [
        int "depth" (fun (_, on) d -> if d > 0 then (d, on) else reject "a positive int");
        bool "on" (fun (d, _) on -> (d, on));
      ]
  in
  let decode attrs = Keys.decode table (1, false) attrs in
  Alcotest.(check (pair int bool)) "defaults" (1, false) (decode []);
  Alcotest.(check (pair int bool)) "decoded" (4, true)
    (decode [ ("on", Yamlite.Bool true); ("depth", Yamlite.Int 4) ]);
  let r = Registry.create () in
  let factory table : Registry.factory =
   fun ~uuid ~attrs ->
    ignore (Keys.decode table (1, false) attrs);
    counter_factory () ~uuid ~attrs
  in
  Registry.register_factory r ~name:"m" (factory table);
  Registry.register_factory r ~name:"n" (factory []);
  let refused ?(mod_name = "m") attrs =
    match Registry.probe r ~mod_name ~attrs with
    | Ok _ -> Alcotest.fail "expected a refusal"
    | Error e -> e
  in
  Alcotest.(check string) "unknown key" "m attribute dpth: unknown (m reads depth, on)"
    (refused [ ("dpth", Yamlite.Int 4) ]);
  Alcotest.(check string) "mistyped" "m attribute on: expected a bool, got 1"
    (refused [ ("on", Yamlite.Int 1) ]);
  Alcotest.(check string) "rejected" "m attribute depth: expected a positive int, got 0"
    (refused [ ("depth", Yamlite.Int 0) ]);
  Alcotest.(check string) "given twice" "m attribute depth: duplicate"
    (refused [ ("depth", Yamlite.Int 2); ("depth", Yamlite.Int 3) ]);
  Alcotest.(check string) "no attributes" "n attribute x: unknown (n reads none)"
    (refused ~mod_name:"n" [ ("x", Yamlite.Null) ])

let test_labmod_state_mutation () =
  in_sim (fun m ->
      let r = Registry.create () in
      Registry.register_factory r ~name:"counter" (counter_factory ());
      let c = Result.get_ok (Registry.instantiate r ~mod_name:"counter" ~uuid:"c1" ~attrs:[]) in
      let ctx = dummy_ctx m in
      for i = 1 to 5 do
        ignore (c.Labmod.ops.Labmod.operate c ctx (mk_req i))
      done;
      match c.Labmod.state with
      | Counter n -> Alcotest.(check int) "state advanced" 5 n
      | _ -> Alcotest.fail "wrong state constructor")

(* ------------------------------------------------------------------ *)
(* Stack specs                                                         *)
(* ------------------------------------------------------------------ *)

let sample_spec =
  {|
mount: "fs::/b"
rules:
  exec_mode: async
  priority: 1
  admins: [root]
dag:
  - uuid: fs-1
    mod: mockfs
    outputs: [cache-1]
  - uuid: cache-1
    mod: mockcache
    attrs:
      capacity_mb: 64
    outputs: [sched-1]
  - uuid: sched-1
    mod: mocksched
    outputs: [drv-1]
  - uuid: drv-1
    mod: mockdrv
|}

let mock_probe ~mod_name ~attrs:_ =
  match mod_name with
  | "mockfs" -> Ok Labmod.Filesystem
  | "mockcache" -> Ok Labmod.Cache
  | "mocksched" -> Ok Labmod.Scheduler
  | "mockdrv" -> Ok Labmod.Driver
  | "mockkvs" -> Ok Labmod.Kv_store
  | _ -> Error "not installed"

let test_spec_parse () =
  match Stack_spec.parse sample_spec with
  | Error e -> Alcotest.fail e
  | Ok spec ->
      Alcotest.(check string) "mount" "fs::/b" spec.Stack_spec.mount;
      Alcotest.(check int) "dag size" 4 (List.length spec.Stack_spec.dag);
      Alcotest.(check string) "entry" "fs-1" (Stack_spec.entry spec).Stack_spec.uuid;
      Alcotest.(check bool) "async" true
        (spec.Stack_spec.rules.Stack_spec.exec_mode = Stack_spec.Async)

let test_spec_validate_ok () =
  let spec = Result.get_ok (Stack_spec.parse sample_spec) in
  match Stack_spec.validate spec ~probe:mock_probe with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let expect_invalid name doc =
  match Stack_spec.parse doc with
  | Error _ -> ()
  | Ok spec -> (
      match Stack_spec.validate spec ~probe:mock_probe with
      | Error _ -> ()
      | Ok () -> Alcotest.fail (name ^ ": expected validation failure"))

let test_spec_validate_cycle () =
  expect_invalid "cycle"
    {|
mount: "fs::/x"
dag:
  - uuid: a
    mod: mockcache
    outputs: [b]
  - uuid: b
    mod: mockcache
    outputs: [a]
|}

let test_spec_validate_unknown_output () =
  expect_invalid "unknown output"
    {|
mount: "fs::/x"
dag:
  - uuid: a
    mod: mockfs
    outputs: [ghost]
|}

let test_spec_validate_bad_edge () =
  (* A driver cannot feed anything. *)
  expect_invalid "driver with output"
    {|
mount: "fs::/x"
dag:
  - uuid: d
    mod: mockdrv
    outputs: [f]
  - uuid: f
    mod: mockfs
|}

let test_spec_validate_duplicate_uuid () =
  expect_invalid "duplicate uuid"
    {|
mount: "fs::/x"
dag:
  - uuid: a
    mod: mockfs
  - uuid: a
    mod: mockcache
|}

let test_spec_validate_missing_impl () =
  expect_invalid "missing implementation"
    {|
mount: "fs::/x"
dag:
  - uuid: a
    mod: not_installed
|}

let test_spec_max_length () =
  let vertices =
    String.concat "\n"
      (List.init 20 (fun i ->
           Printf.sprintf "  - uuid: v%d\n    mod: mockcache%s" i
             (if i < 19 then Printf.sprintf "\n    outputs: [v%d]" (i + 1) else "")))
  in
  let doc = Printf.sprintf "mount: \"fs::/x\"\ndag:\n%s" vertices in
  let spec = Result.get_ok (Stack_spec.parse doc) in
  (match Stack_spec.validate ~max_length:16 spec ~probe:mock_probe with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected max-length failure");
  match Stack_spec.validate ~max_length:32 spec ~probe:mock_probe with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Namespace                                                           *)
(* ------------------------------------------------------------------ *)

let control_factory name : Registry.factory =
 fun ~uuid ~attrs ->
  ignore attrs;
  Labmod.make ~name ~uuid ~mod_type:Labmod.Control
    {
      Labmod.operate = (fun _ _ _ -> Request.Done);
      est_processing_time = Labmod.default_est;
      state_update = (fun s -> s);
      state_repair = (fun _ -> ());
    }

let registry_with_controls () =
  let r = Registry.create () in
  Registry.register_factory r ~name:"ctrl" (control_factory "ctrl");
  r

let ctrl_spec mountpoint =
  Result.get_ok
    (Stack_spec.parse
       (Printf.sprintf "mount: \"%s\"\ndag:\n  - uuid: %s-v\n    mod: ctrl"
          mountpoint
          (String.map (function ':' | '/' -> '-' | c -> c) mountpoint)))

let test_namespace_mount_lookup () =
  let r = registry_with_controls () in
  let ns = Namespace.create () in
  let s = Result.get_ok (Namespace.mount ns r (ctrl_spec "fs::/b")) in
  Alcotest.(check bool) "exact lookup" true (Namespace.lookup ns "fs::/b" == s);
  Alcotest.(check bool) "by id" true (Namespace.stack_by_id ns s.Stack.id == s);
  (match Namespace.mount ns r (ctrl_spec "fs::/b") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "double mount should fail");
  Alcotest.(check (list string)) "mounts" [ "fs::/b" ] (Namespace.mounts ns)

let test_namespace_resolve_prefix () =
  let r = registry_with_controls () in
  let ns = Namespace.create () in
  let b = Result.get_ok (Namespace.mount ns r (ctrl_spec "fs::/b")) in
  let bc = Result.get_ok (Namespace.mount ns r (ctrl_spec "fs::/b/c")) in
  Alcotest.(check bool) "deep file resolves to closest mount" true
    (Namespace.resolve ns "fs::/b/c/file.txt" = Some bc);
  Alcotest.(check bool) "sibling resolves to parent mount" true
    (Namespace.resolve ns "fs::/b/hi.txt" = Some b);
  Alcotest.(check bool) "unrelated path unresolved" true
    (Namespace.resolve ns "kv::/z" = None)

let test_namespace_unmount () =
  let r = registry_with_controls () in
  let ns = Namespace.create () in
  ignore (Result.get_ok (Namespace.mount ns r (ctrl_spec "fs::/b")));
  (match Namespace.unmount ns "fs::/b" with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "gone" true
    (match Namespace.lookup ns "fs::/b" with
    | _ -> false
    | exception Not_found -> true);
  match Namespace.unmount ns "fs::/b" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "double unmount should fail"

let test_namespace_modify_keeps_state () =
  let r = Registry.create () in
  Registry.register_factory r ~name:"counter" (counter_factory ());
  Registry.register_factory r ~name:"ctrl" (control_factory "ctrl");
  let ns = Namespace.create () in
  let spec1 =
    Result.get_ok
      (Stack_spec.parse
         "mount: \"x::/m\"\ndag:\n  - uuid: keep\n    mod: counter")
  in
  let _ = Result.get_ok (Namespace.mount ns r spec1) in
  let kept = Option.get (Registry.find r "keep") in
  kept.Labmod.state <- Counter 99;
  let spec2 =
    Result.get_ok
      (Stack_spec.parse
         "mount: \"x::/m\"\ndag:\n  - uuid: keep\n    mod: counter\n    outputs: [extra]\n  - uuid: extra\n    mod: ctrl")
  in
  let s2 = Result.get_ok (Namespace.modify_stack ns r spec2) in
  Alcotest.(check int) "dag grew" 2 (List.length s2.Stack.spec.Stack_spec.dag);
  match (Option.get (Registry.find r "keep")).Labmod.state with
  | Counter 99 -> ()
  | _ -> Alcotest.fail "state lost across modify_stack"

(* ------------------------------------------------------------------ *)
(* Module manager                                                      *)
(* ------------------------------------------------------------------ *)

let test_upgrade_centralized () =
  in_sim (fun m ->
      let r = Registry.create () in
      Registry.register_factory r ~name:"counter" (counter_factory ());
      let c =
        Result.get_ok (Registry.instantiate r ~mod_name:"counter" ~uuid:"c1" ~attrs:[])
      in
      c.Labmod.state <- Counter 7;
      let loads = ref 0 in
      let mm =
        Module_manager.create m r ~load_code:(fun ~thread:_ ~bytes:_ ->
            incr loads;
            Engine.wait 5e6)
      in
      let qp = Lab_ipc.Qp.create ~role:Lab_ipc.Qp.Primary ~ordering:Lab_ipc.Qp.Ordered ~id:1 () in
      (* A worker stand-in that acks the pause mark. *)
      Engine.spawn m.Machine.engine (fun () ->
          let rec loop () =
            (match Lab_ipc.Qp.mark qp with
            | Lab_ipc.Qp.Update_pending -> Lab_ipc.Qp.set_mark qp Lab_ipc.Qp.Update_acked
            | _ -> ());
            if Lab_ipc.Qp.mark qp <> Lab_ipc.Qp.Normal || Module_manager.pending mm > 0
            then begin
              Engine.wait 1000.0;
              loop ()
            end
          in
          loop ());
      Module_manager.submit_upgrade mm
        {
          Module_manager.target = "counter";
          factory = counter_factory ~bump:10 ();
          code_bytes = 1 lsl 20;
          kind = Module_manager.Centralized;
        };
      Alcotest.(check int) "queued" 1 (Module_manager.pending mm);
      let t0 = Machine.now m in
      Module_manager.process_centralized mm ~thread:0 ~primary_qps:[ qp ]
        ~all_acked:(fun () -> Lab_ipc.Qp.mark qp = Lab_ipc.Qp.Update_acked)
        ~intermediate_idle:(fun () -> true);
      Alcotest.(check bool) "upgrade took ~load time" true (Machine.now m -. t0 >= 5e6);
      Alcotest.(check int) "code loaded once" 1 !loads;
      let fresh = Option.get (Registry.find r "c1") in
      Alcotest.(check bool) "new instance" true (fresh != c);
      Alcotest.(check int) "version bumped" 2 fresh.Labmod.version;
      (match fresh.Labmod.state with
      | Counter 7 -> ()
      | _ -> Alcotest.fail "state not transferred");
      Alcotest.(check bool) "queue unmarked" true (Lab_ipc.Qp.mark qp = Lab_ipc.Qp.Normal);
      (* The new code must actually be running. *)
      ignore (fresh.Labmod.ops.Labmod.operate fresh (dummy_ctx m) (mk_req 1));
      match fresh.Labmod.state with
      | Counter 17 -> ()
      | _ -> Alcotest.fail "new operate not in effect")

let test_upgrade_decentralized_epochs () =
  in_sim (fun m ->
      let r = Registry.create () in
      Registry.register_factory r ~name:"counter" (counter_factory ());
      let mm =
        Module_manager.create m r ~load_code:(fun ~thread:_ ~bytes:_ -> Engine.wait 1e6)
      in
      Alcotest.(check int) "epoch 0" 0 (Module_manager.epoch mm);
      Module_manager.submit_upgrade mm
        {
          Module_manager.target = "counter";
          factory = counter_factory ~bump:2 ();
          code_bytes = 1 lsl 20;
          kind = Module_manager.Decentralized;
        };
      Alcotest.(check int) "epoch bumped" 1 (Module_manager.epoch mm);
      Alcotest.(check int) "not in centralized queue" 0 (Module_manager.pending mm);
      let pendings = Module_manager.client_pending_upgrades mm ~since_epoch:0 in
      Alcotest.(check int) "client sees one upgrade" 1 (List.length pendings);
      let local =
        Result.get_ok (Registry.instantiate r ~mod_name:"counter" ~uuid:"cl" ~attrs:[])
      in
      local.Labmod.state <- Counter 3;
      let fresh =
        Module_manager.apply_client_upgrade mm ~thread:0 ~local (List.hd pendings)
      in
      (match fresh.Labmod.state with
      | Counter 3 -> ()
      | _ -> Alcotest.fail "client state lost");
      Alcotest.(check int) "client at current epoch sees nothing" 0
        (List.length (Module_manager.client_pending_upgrades mm ~since_epoch:1)))

(* Every request is built by stamping its times in place and reported
   to [Hooks.submit]; with tracing and the flight recorder off, neither
   boxes the time nor allocates. The flow starts only for a traced
   request, from its scheduled origin. Native only for the words. *)
let test_untraced_submit_allocates_nothing () =
  let e = Engine.create () in
  let submit h req =
    let times = req.Request.times in
    Engine.stamp e times 0;
    times.(1) <- times.(0);
    Hooks.submit h req ~tid:0
  in
  let req = Request.make ~id:1 ~pid:1 ~uid:0 ~thread:0 ~stack_id:1 ~now:5.0 (Request.Control 0) in
  let h = Hooks.create ~tracer:(Lab_obs.Trace.create ()) e in
  submit h req;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    submit h req
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "untraced: no flow" true (req.Request.trace = None);
  Alcotest.(check (float 0.0)) "stamped at now" 0.0 req.Request.times.(1);
  (match Sys.backend_type with
  | Sys.Native -> Alcotest.(check (float 0.0)) "words for 10k submits" 0.0 words
  | Sys.Bytecode | Sys.Other _ -> ());
  let tracer = Lab_obs.Trace.create ~sample:1 () in
  let traced = Hooks.create ~tracer e in
  req.Request.times.(1) <- -3.0;
  Hooks.submit traced req ~tid:0;
  Hooks.finish traced req ~tid:0 Request.Done;
  Alcotest.(check (list (pair string (float 0.0))))
    "traced: root and stages from the times"
    [ ("inject_lag", -3.0); ("submit", 0.0); ("request", -3.0) ]
    (List.map
       (fun (ev : Lab_obs.Trace.ev) -> (ev.Lab_obs.Trace.ev_name, ev.Lab_obs.Trace.ev_ts))
       (Lab_obs.Trace.events tracer))

let () =
  Alcotest.run "lab_core"
    [
      ( "yamlite",
        [
          Alcotest.test_case "scalars" `Quick test_yaml_scalars;
          Alcotest.test_case "map" `Quick test_yaml_map;
          Alcotest.test_case "nested" `Quick test_yaml_nested;
          Alcotest.test_case "block list" `Quick test_yaml_block_list;
          Alcotest.test_case "flow list" `Quick test_yaml_flow_list;
          Alcotest.test_case "list of maps" `Quick test_yaml_list_of_maps;
          Alcotest.test_case "comments" `Quick test_yaml_comments;
          Alcotest.test_case "nested attrs" `Quick test_yaml_nested_attrs;
          Alcotest.test_case "parse error" `Quick test_yaml_parse_error;
          QCheck_alcotest.to_alcotest prop_yaml_roundtrip;
        ] );
      ( "registry",
        [
          Alcotest.test_case "instantiate once per uuid" `Quick
            test_registry_instantiate_once;
          Alcotest.test_case "missing factory" `Quick test_registry_missing_factory;
          Alcotest.test_case "attribute decoder" `Quick test_decode_attrs;
          Alcotest.test_case "state mutation" `Quick test_labmod_state_mutation;
        ] );
      ( "stack-spec",
        [
          Alcotest.test_case "parse" `Quick test_spec_parse;
          Alcotest.test_case "validate ok" `Quick test_spec_validate_ok;
          Alcotest.test_case "cycle rejected" `Quick test_spec_validate_cycle;
          Alcotest.test_case "unknown output" `Quick test_spec_validate_unknown_output;
          Alcotest.test_case "bad edge" `Quick test_spec_validate_bad_edge;
          Alcotest.test_case "duplicate uuid" `Quick test_spec_validate_duplicate_uuid;
          Alcotest.test_case "missing impl" `Quick test_spec_validate_missing_impl;
          Alcotest.test_case "max length" `Quick test_spec_max_length;
        ] );
      ( "namespace",
        [
          Alcotest.test_case "mount/lookup" `Quick test_namespace_mount_lookup;
          Alcotest.test_case "prefix resolve" `Quick test_namespace_resolve_prefix;
          Alcotest.test_case "unmount" `Quick test_namespace_unmount;
          Alcotest.test_case "modify keeps state" `Quick
            test_namespace_modify_keeps_state;
        ] );
      ( "module-manager",
        [
          Alcotest.test_case "centralized upgrade" `Quick test_upgrade_centralized;
          Alcotest.test_case "decentralized epochs" `Quick
            test_upgrade_decentralized_epochs;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "untraced submit allocates nothing" `Quick
            test_untraced_submit_allocates_nothing;
        ] );
    ]
