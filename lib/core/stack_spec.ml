type exec_mode = Sync | Async

type vertex = {
  uuid : string;
  mod_name : string;
  attrs : (string * Yamlite.t) list;
  outputs : string list;
}

type rules = { exec_mode : exec_mode; priority : int; admins : string list }

type t = { mount : string; rules : rules; dag : vertex list }

let default_rules = { exec_mode = Async; priority = 0; admins = [ "root" ] }

let ( let* ) r f = Result.bind r f

let string_list_of = function
  | Yamlite.List items ->
      let strings =
        List.filter_map
          (fun v ->
            match v with
            | Yamlite.Str s -> Some s
            | Yamlite.Int i -> Some (string_of_int i)
            | _ -> None)
          items
      in
      if List.length strings = List.length items then Ok strings
      else Error "expected a list of strings"
  | Yamlite.Null -> Ok []
  | _ -> Error "expected a list"

let rules_of_yaml = function
  | None -> Ok default_rules
  | Some node ->
      let* exec_mode =
        match Option.bind (Yamlite.find node "exec_mode") Yamlite.get_string with
        | Some "sync" -> Ok Sync
        | Some "async" | None -> Ok Async
        | Some other -> Error (Printf.sprintf "unknown exec_mode %S" other)
      in
      let priority =
        Option.value ~default:0
          (Option.bind (Yamlite.find node "priority") Yamlite.get_int)
      in
      let* admins =
        match Yamlite.find node "admins" with
        | None -> Ok default_rules.admins
        | Some l -> string_list_of l
      in
      Ok { exec_mode; priority; admins }

let vertex_of_yaml i node =
  let err msg = Error (Printf.sprintf "dag[%d]: %s" i msg) in
  match node with
  | Yamlite.Map _ -> (
      match
        ( Option.bind (Yamlite.find node "uuid") Yamlite.get_string,
          Option.bind (Yamlite.find node "mod") Yamlite.get_string )
      with
      | None, _ -> err "missing uuid"
      | _, None -> err "missing mod"
      | Some uuid, Some mod_name ->
          let attrs =
            match Yamlite.find node "attrs" with
            | Some (Yamlite.Map kvs) -> kvs
            | _ -> []
          in
          let* outputs =
            match Yamlite.find node "outputs" with
            | None -> Ok []
            | Some l -> (
                match string_list_of l with
                | Ok outs -> Ok outs
                | Error e -> err e)
          in
          Ok { uuid; mod_name; attrs; outputs })
  | _ -> err "expected a mapping"

let of_yaml node =
  let* mount =
    match Option.bind (Yamlite.find node "mount") Yamlite.get_string with
    | Some m when m <> "" -> Ok m
    | _ -> Error "missing or empty mount point"
  in
  let* rules = rules_of_yaml (Yamlite.find node "rules") in
  let* dag_nodes =
    match Option.bind (Yamlite.find node "dag") Yamlite.get_list with
    | Some l -> Ok l
    | None -> Error "missing dag"
  in
  let* dag =
    List.fold_left
      (fun acc (i, v) ->
        let* acc = acc in
        let* vertex = vertex_of_yaml i v in
        Ok (vertex :: acc))
      (Ok [])
      (List.mapi (fun i v -> (i, v)) dag_nodes)
  in
  Ok { mount; rules; dag = List.rev dag }

let parse text =
  match Yamlite.parse text with
  | exception Yamlite.Parse_error { line; message } ->
      Error (Printf.sprintf "line %d: %s" line message)
  | node -> of_yaml node

let entry t =
  match t.dag with
  | v :: _ -> v
  | [] -> invalid_arg "Stack_spec.entry: empty DAG"

let find_vertex t uuid = List.find_opt (fun v -> v.uuid = uuid) t.dag

(* Kahn's algorithm restricted to edges inside the stack; external
   outputs (other mounts) are ignored here. *)
let acyclic dag =
  let module S = Set.Make (String) in
  let ids = S.of_list (List.map (fun v -> v.uuid) dag) in
  let indeg = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace indeg v.uuid 0) dag;
  List.iter
    (fun v ->
      List.iter
        (fun o ->
          if S.mem o ids then
            Hashtbl.replace indeg o (1 + Option.value ~default:0 (Hashtbl.find_opt indeg o)))
        v.outputs)
    dag;
  let q = Queue.create () in
  Hashtbl.iter (fun u d -> if d = 0 then Queue.add u q) indeg;
  let visited = ref 0 in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    incr visited;
    match List.find_opt (fun v -> v.uuid = u) dag with
    | None -> ()
    | Some v ->
        List.iter
          (fun o ->
            if S.mem o ids then begin
              let d = Hashtbl.find indeg o - 1 in
              Hashtbl.replace indeg o d;
              if d = 0 then Queue.add o q
            end)
          v.outputs
  done;
  !visited = List.length dag

let validate ?(max_length = 16) t ~probe =
  let* () = if t.dag = [] then Error "empty DAG" else Ok () in
  let* () =
    if List.length t.dag > max_length then
      Error (Printf.sprintf "DAG longer than the configured maximum (%d)" max_length)
    else Ok ()
  in
  let uuids = List.map (fun v -> v.uuid) t.dag in
  let* () =
    if List.length (List.sort_uniq String.compare uuids) <> List.length uuids then
      Error "duplicate LabMod UUIDs in DAG"
    else Ok ()
  in
  let* () =
    List.fold_left
      (fun acc v ->
        let* () = acc in
        List.fold_left
          (fun acc o ->
            let* () = acc in
            if List.mem o uuids || String.contains o ':' then Ok ()
              (* outputs containing ':' reference other mounts *)
            else Error (Printf.sprintf "%s: unknown output %S" v.uuid o))
          (Ok ()) v.outputs)
      (Ok ()) t.dag
  in
  let* () = if acyclic t.dag then Ok () else Error "DAG contains a cycle" in
  let* types =
    List.fold_left
      (fun acc v ->
        let* acc = acc in
        match probe ~mod_name:v.mod_name ~attrs:v.attrs with
        | Ok ty -> Ok ((v.uuid, ty) :: acc)
        | Error e -> Error (Printf.sprintf "%s: %s" v.uuid e))
      (Ok []) t.dag
  in
  List.fold_left
    (fun acc v ->
      let* () = acc in
      let up = List.assoc v.uuid types in
      List.fold_left
        (fun acc o ->
          let* () = acc in
          match List.assoc_opt o types with
          | None -> Ok ()  (* cross-mount reference *)
          | Some down ->
              if Labmod.compatible_downstream up down then Ok ()
              else
                Error
                  (Printf.sprintf "%s (%s) cannot feed %s (%s)" v.uuid
                     (Labmod.mod_type_name up) o (Labmod.mod_type_name down)))
        (Ok ()) v.outputs)
    (Ok ()) t.dag
