open Lab_core

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
  Keys.invalid (Printf.sprintf "does not apply to policy kind %s" (kind_of p))

let policy_keys : Orchestrator.policy Keys.t list =
  let open Orchestrator in
  Keys.
    [
      string "kind" (fun p kind ->
          let n = workers_of p in
          match kind with
          | "static" -> Static n
          | "round_robin" -> Round_robin n
          | "dynamic" -> Dynamic { max_workers = n; threshold = 0.2; lq_cutoff_ns = 1e6 }
          | other -> invalid (Printf.sprintf "unknown policy kind %S" other));
      int "workers" (fun p n ->
          match p with
          | Static _ -> Static n
          | Round_robin _ -> Round_robin n
          | Dynamic _ -> inapplicable p);
      int "max_workers" (fun p max_workers ->
          match p with Dynamic d -> Dynamic { d with max_workers } | _ -> inapplicable p);
      float "threshold" (fun p threshold ->
          match p with Dynamic d -> Dynamic { d with threshold } | _ -> inapplicable p);
      float "lq_cutoff_us" (fun p us ->
          match p with
          | Dynamic d -> Dynamic { d with lq_cutoff_ns = us *. 1000.0 }
          | _ -> inapplicable p);
    ]

(* Table order, not document order: [workers] is decoded before
   [policy], whose defaults depend on it. *)
let keys : Runtime.config Keys.t list =
  Keys.
    [
      int "workers" (fun c n ->
          if n <= 0 then invalid "workers must be positive"
          else { c with Runtime.nworkers = n; policy = Orchestrator.Round_robin n });
      custom "policy" (fun c n ->
          {
            c with
            Runtime.policy =
              nested policy_keys (Orchestrator.Round_robin c.Runtime.nworkers) n;
          });
      bool "busy_poll" (fun c x -> { c with Runtime.workers_busy_poll = x });
      int "worker_batch_size" (fun c x -> { c with Runtime.worker_batch_size = x });
      int "worker_max_inflight" (fun c x -> { c with Runtime.worker_max_inflight = x });
      int "trace_sample" (fun c x -> { c with Runtime.trace_sample = x });
      path "trace_path" (fun c x -> { c with Runtime.trace_path = x });
      path "metrics_path" (fun c x -> { c with Runtime.metrics_path = x });
      int "exemplar_k" (fun c x -> { c with Runtime.exemplar_k = x });
      float "exemplar_tail_us" (fun c x -> { c with Runtime.exemplar_tail_us = x });
      path "exemplar_path" (fun c x -> { c with Runtime.exemplar_path = x });
      int "blackbox_cap" (fun c x -> { c with Runtime.blackbox_cap = x });
      path "blackbox_path" (fun c x -> { c with Runtime.blackbox_path = x });
      float "profile_period_us" (fun c x ->
          { c with Runtime.profile_period_ns = x *. 1000.0 });
      path "profile_path" (fun c x -> { c with Runtime.profile_path = x });
      float "lvm_rebuild_rate_mbps" (fun c x ->
          { c with Runtime.lvm_rebuild_rate_mbps = x });
      float "slo_p99_target_us" (fun c x -> { c with Runtime.slo_p99_target_us = x });
      float "slo_floor_kops" (fun c x -> { c with Runtime.slo_floor_kops = x });
    ]

let of_yaml = function
  | Yamlite.Null -> Ok Runtime.default_config
  | Yamlite.Map kvs -> (
      try Ok (Keys.decode keys Runtime.default_config kvs)
      with Keys.Refused e -> Error (Keys.message e))
  | n -> Error ("expected a map, got " ^ Yamlite.to_string n)

let parse text =
  match Yamlite.parse text with
  | exception Yamlite.Parse_error { line; message } ->
      Error (Printf.sprintf "line %d: %s" line message)
  | node -> of_yaml node
