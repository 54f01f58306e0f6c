type t = {
  id : int;
  mount : string;
  spec : Stack_spec.t;
  exec_mode : Stack_spec.exec_mode;
}

let ( let* ) r f = Result.bind r f

let instantiate registry spec ~id =
  let* () = Stack_spec.validate spec ~probe:(Registry.probe registry) in
  let* () =
    List.fold_left
      (fun acc (v : Stack_spec.vertex) ->
        let* () = acc in
        let* _m =
          Registry.instantiate registry ~mod_name:v.mod_name ~uuid:v.uuid
            ~attrs:v.attrs
        in
        Ok ())
      (Ok ()) spec.Stack_spec.dag
  in
  Ok { id; mount = spec.Stack_spec.mount; spec; exec_mode = spec.Stack_spec.rules.Stack_spec.exec_mode }

let entry_uuid t = (Stack_spec.entry t.spec).Stack_spec.uuid

let vertex t uuid = Stack_spec.find_vertex t.spec uuid

(* Outputs naming another mount ("fs::/b") leave the stack. *)
let is_local o = String.index_opt o ':' = None

let next_uuids t uuid =
  match vertex t uuid with
  | Some v -> List.filter is_local v.Stack_spec.outputs
  | None -> []

let mods t registry =
  List.filter_map
    (fun (v : Stack_spec.vertex) -> Registry.find registry v.uuid)
    t.spec.Stack_spec.dag

let update_spec t registry spec =
  let* fresh = instantiate registry { spec with Stack_spec.mount = t.mount } ~id:t.id in
  Ok { fresh with exec_mode = spec.Stack_spec.rules.Stack_spec.exec_mode }
