type factory = uuid:string -> attrs:(string * Yamlite.t) list -> Labmod.t

type binding = ..

module Itbl = Hashtbl.Make (Int)

type t = {
  factories : (string, factory) Hashtbl.t;
  by_uuid : (string, Labmod.t) Hashtbl.t;
  bindings : binding Itbl.t;
}

let create () =
  {
    factories = Hashtbl.create 32;
    by_uuid = Hashtbl.create 64;
    bindings = Itbl.create 8;
  }

let register_factory t ~name factory = Hashtbl.replace t.factories name factory

let unregister_factory t ~name = Hashtbl.remove t.factories name

let find_factory t name = Hashtbl.find_opt t.factories name

let factory_names t = Hashtbl.fold (fun k _ acc -> k :: acc) t.factories []

let instantiate t ~mod_name ~uuid ~attrs =
  match Hashtbl.find_opt t.by_uuid uuid with
  | Some existing -> Ok existing
  | None -> (
      match find_factory t mod_name with
      | None -> Error (Printf.sprintf "no LabMod implementation named %S" mod_name)
      | Some factory ->
          let m = factory ~uuid ~attrs in
          Hashtbl.replace t.by_uuid uuid m;
          Ok m)

let find t uuid = Hashtbl.find_opt t.by_uuid uuid

let find_exn t uuid = Hashtbl.find t.by_uuid uuid

let replace t m = Hashtbl.replace t.by_uuid m.Labmod.uuid m

let remove t uuid = Hashtbl.remove t.by_uuid uuid

let instances t = Hashtbl.fold (fun _ m acc -> m :: acc) t.by_uuid []

let instances_of_name t name =
  List.filter (fun m -> m.Labmod.name = name) (instances t)

let binding t key = Itbl.find t.bindings key

let bind t key b = Itbl.replace t.bindings key b
