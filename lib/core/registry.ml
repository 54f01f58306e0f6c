type factory = uuid:string -> attrs:(string * Yamlite.t) list -> Labmod.t

type binding = ..

module Itbl = Lab_sim.Itbl

type t = {
  factories : (string, factory) Hashtbl.t;
  by_uuid : (string, Labmod.t) Hashtbl.t;
  mutable generation : int;  (* bumped by every change to [by_uuid] *)
  bindings : binding Itbl.t;
}

let create () =
  {
    factories = Hashtbl.create 32;
    by_uuid = Hashtbl.create 64;
    generation = 0;
    bindings = Itbl.create 4;
  }

let register_factory t ~name factory = Hashtbl.replace t.factories name factory

let unregister_factory t ~name = Hashtbl.remove t.factories name

let find_factory t name = Hashtbl.find_opt t.factories name

let factory_names t = Hashtbl.fold (fun k _ acc -> k :: acc) t.factories []

(* A factory call; a refused attribute is an [Error] naming the module
   and the key. *)
let build factory ~mod_name ~uuid ~attrs =
  try Ok (factory ~uuid ~attrs)
  with Keys.Refused e ->
    let key, problem =
      match e with
      | Keys.Unknown { key; known } ->
          ( key,
            Printf.sprintf "unknown (%s reads %s)" mod_name
              (if known = [] then "none" else String.concat ", " known) )
      | Keys.Duplicate key -> (key, "duplicate")
      | Keys.Bad { key; problem } -> (key, problem)
    in
    Error (Printf.sprintf "%s attribute %s: %s" mod_name key problem)

let probe t ~mod_name ~attrs =
  match find_factory t mod_name with
  | None -> Error (Printf.sprintf "implementation %S is not installed" mod_name)
  | Some f ->
      Result.map (fun m -> m.Labmod.mod_type) (build f ~mod_name ~uuid:"__probe__" ~attrs)

let instantiate t ~mod_name ~uuid ~attrs =
  match Hashtbl.find_opt t.by_uuid uuid with
  | Some existing -> Ok existing
  | None -> (
      match find_factory t mod_name with
      | None -> Error (Printf.sprintf "no LabMod implementation named %S" mod_name)
      | Some factory -> (
          match build factory ~mod_name ~uuid ~attrs with
          | Ok m ->
              Hashtbl.replace t.by_uuid uuid m;
              t.generation <- t.generation + 1;
              Ok m
          | Error e -> Error (uuid ^ ": " ^ e)))

let find t uuid = Hashtbl.find_opt t.by_uuid uuid

let find_exn t uuid = Hashtbl.find t.by_uuid uuid

let replace t m =
  Hashtbl.replace t.by_uuid m.Labmod.uuid m;
  t.generation <- t.generation + 1

let remove t uuid =
  Hashtbl.remove t.by_uuid uuid;
  t.generation <- t.generation + 1

let generation t = t.generation

let instances t = Hashtbl.fold (fun _ m acc -> m :: acc) t.by_uuid []

let instances_of_name t name =
  List.filter (fun m -> m.Labmod.name = name) (instances t)

let binding t key = Itbl.find t.bindings key

let bind t key b = Itbl.replace t.bindings key b
