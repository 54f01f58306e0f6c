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

let rule_keys =
  Keys.
    [
      string "exec_mode" (fun r -> function
        | "sync" -> { r with exec_mode = Sync }
        | "async" -> { r with exec_mode = Async }
        | _ -> reject "sync or async");
      int "priority" (fun r priority -> { r with priority });
      strings "admins" (fun r admins -> { r with admins });
    ]

let vertex_keys =
  Keys.
    [
      string "uuid" (fun v uuid -> { v with uuid });
      string "mod" (fun v mod_name -> { v with mod_name });
      custom "attrs" (fun v -> function
        | Yamlite.Map attrs -> { v with attrs }
        | Yamlite.Null -> v
        | _ -> reject "a map");
      strings "outputs" (fun v outputs -> { v with outputs });
    ]

let unnamed = { uuid = ""; mod_name = ""; attrs = []; outputs = [] }

(* A refusal inside the [i]th vertex names the vertex by its index. *)
let vertex i node =
  let refuse problem =
    raise (Keys.Refused (Keys.Bad { key = Printf.sprintf "dag[%d]" i; problem }))
  in
  match node with
  | Yamlite.Map kvs -> (
      match Keys.decode vertex_keys unnamed kvs with
      | exception Keys.Refused e -> refuse (Keys.message e)
      | { uuid = ""; _ } -> refuse "missing uuid"
      | { mod_name = ""; _ } -> refuse "missing mod"
      | v -> v)
  | _ -> refuse "expected a mapping"

(* A missing [dag] is an empty one, which {!validate} refuses. *)
let keys =
  Keys.
    [
      string "mount" (fun t mount -> { t with mount });
      custom "rules" (fun t n -> { t with rules = nested rule_keys t.rules n });
      custom "dag" (fun t -> function
        | Yamlite.List l -> { t with dag = List.mapi vertex l }
        | _ -> reject "a list");
    ]

let of_yaml node =
  let kvs = match node with Yamlite.Map kvs -> kvs | _ -> [] in
  match Keys.decode keys { mount = ""; rules = default_rules; dag = [] } kvs with
  | exception Keys.Refused e -> Error (Keys.message e)
  | { mount = ""; _ } -> Error "missing or empty mount point"
  | t -> Ok t

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
