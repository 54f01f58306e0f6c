open Lab_core

let ( let* ) r f = Result.bind r f

(* A key table maps each YAML key to a decoder that updates one field
   of the value being built. The same table decides which keys are
   valid, so a key is accepted exactly when it is decoded. *)
type 'a table = (string * ('a -> Yamlite.t -> ('a, string) result)) list

let decode (table : 'a table) init node =
  match node with
  | Yamlite.Null -> Ok init
  | Yamlite.Map kvs -> (
      match List.find_opt (fun (k, _) -> not (List.mem_assoc k table)) kvs with
      | Some (k, _) -> Error (Printf.sprintf "unknown key %S" k)
      | None ->
          (* Table order, not document order: [workers] is decoded
             before [policy], whose defaults depend on it. *)
          List.fold_left
            (fun acc (key, dec) ->
              let* v = acc in
              match List.assoc_opt key kvs with
              | None -> Ok v
              | Some n ->
                  Result.map_error (Printf.sprintf "%s: %s" key) (dec v n))
            (Ok init) table)
  | n -> Error ("expected a map, got " ^ Yamlite.to_string n)

let typed what get set v n =
  match get n with
  | Some x -> set v x
  | None -> Error (Printf.sprintf "expected %s, got %s" what (Yamlite.to_string n))

let int set = typed "an int" Yamlite.get_int (fun v x -> Ok (set v x))

let float set = typed "a number" Yamlite.get_float (fun v x -> Ok (set v x))

let bool set = typed "a bool" Yamlite.get_bool (fun v x -> Ok (set v x))

let string set = typed "a string" Yamlite.get_string (fun v x -> Ok (set v x))

(* Microsecond keys fill nanosecond fields. *)
let us set = float (fun v x -> set v (x *. 1000.0))

(* Output paths: an empty string or a bare key means "no file". *)
let path set v = function
  | Yamlite.Null | Yamlite.Str "" -> Ok (set v None)
  | n -> string (fun v s -> set v (Some s)) v n

let workers_of = function
  | Orchestrator.Static n | Orchestrator.Round_robin n -> n
  | Orchestrator.Dynamic d -> d.max_workers

let kind_of = function
  | Orchestrator.Static _ -> "static"
  | Orchestrator.Round_robin _ -> "round_robin"
  | Orchestrator.Dynamic _ -> "dynamic"

(* A policy key that the chosen kind does not read is an error, not a
   silently dropped value. *)
let inapplicable p =
  Error (Printf.sprintf "does not apply to policy kind %s" (kind_of p))

let policy_table : Orchestrator.policy table =
  let open Orchestrator in
  [
    ( "kind",
      typed "a string" Yamlite.get_string (fun p kind ->
          let n = workers_of p in
          match kind with
          | "static" -> Ok (Static n)
          | "round_robin" -> Ok (Round_robin n)
          | "dynamic" ->
              Ok (Dynamic { max_workers = n; threshold = 0.2; lq_cutoff_ns = 1e6 })
          | other -> Error (Printf.sprintf "unknown policy kind %S" other)) );
    ( "workers",
      typed "an int" Yamlite.get_int (fun p n ->
          match p with
          | Static _ -> Ok (Static n)
          | Round_robin _ -> Ok (Round_robin n)
          | Dynamic _ -> inapplicable p) );
    ( "max_workers",
      typed "an int" Yamlite.get_int (fun p max_workers ->
          match p with
          | Dynamic d -> Ok (Dynamic { d with max_workers })
          | _ -> inapplicable p) );
    ( "threshold",
      typed "a number" Yamlite.get_float (fun p threshold ->
          match p with
          | Dynamic d -> Ok (Dynamic { d with threshold })
          | _ -> inapplicable p) );
    ( "lq_cutoff_us",
      typed "a number" Yamlite.get_float (fun p us ->
          match p with
          | Dynamic d -> Ok (Dynamic { d with lq_cutoff_ns = us *. 1000.0 })
          | _ -> inapplicable p) );
  ]

let table : Runtime.config table =
  [
    ( "workers",
      typed "an int" Yamlite.get_int (fun c n ->
          if n <= 0 then Error "workers must be positive"
          else
            Ok { c with Runtime.nworkers = n; policy = Orchestrator.Round_robin n })
    );
    ( "policy",
      fun c n ->
        let* policy =
          decode policy_table (Orchestrator.Round_robin c.Runtime.nworkers) n
        in
        Ok { c with Runtime.policy } );
    ("busy_poll", bool (fun c x -> { c with Runtime.workers_busy_poll = x }));
    ("worker_batch_size", int (fun c x -> { c with Runtime.worker_batch_size = x }));
    ( "worker_max_inflight",
      int (fun c x -> { c with Runtime.worker_max_inflight = x }) );
    ("trace_sample", int (fun c x -> { c with Runtime.trace_sample = x }));
    ("trace_path", path (fun c x -> { c with Runtime.trace_path = x }));
    ("metrics_path", path (fun c x -> { c with Runtime.metrics_path = x }));
    ("exemplar_k", int (fun c x -> { c with Runtime.exemplar_k = x }));
    ("exemplar_tail_us", float (fun c x -> { c with Runtime.exemplar_tail_us = x }));
    ("exemplar_path", path (fun c x -> { c with Runtime.exemplar_path = x }));
    ("blackbox_cap", int (fun c x -> { c with Runtime.blackbox_cap = x }));
    ("blackbox_path", path (fun c x -> { c with Runtime.blackbox_path = x }));
    ("profile_period_us", us (fun c x -> { c with Runtime.profile_period_ns = x }));
    ("profile_path", path (fun c x -> { c with Runtime.profile_path = x }));
    ( "lvm_rebuild_rate_mbps",
      float (fun c x -> { c with Runtime.lvm_rebuild_rate_mbps = x }) );
    ( "slo_p99_target_us",
      float (fun c x -> { c with Runtime.slo_p99_target_us = x }) );
    ("slo_floor_kops", float (fun c x -> { c with Runtime.slo_floor_kops = x }));
  ]

let of_yaml node = decode table Runtime.default_config node

let parse text =
  match Yamlite.parse text with
  | exception Yamlite.Parse_error { line; message } ->
      Error (Printf.sprintf "line %d: %s" line message)
  | node -> of_yaml node
