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

exception Bad_attr of { mod_name : string; key : string; problem : string }

(* What a decoder expected; [decode_attrs] adds the module, the key and
   the value. *)
exception Rejected of string

let reject what = raise (Rejected what)

type 'a attr = string * ('a -> Yamlite.t -> 'a)

let typed what get key set : _ attr =
  (key, fun v n -> match get n with Some x -> set v x | None -> reject what)

let int_attr key = typed "an int" Yamlite.get_int key

let float_attr key = typed "a number" Yamlite.get_float key

let bool_attr key = typed "a bool" Yamlite.get_bool key

let string_attr key = typed "a string" Yamlite.get_string key

let strings_attr key =
  typed "a list of strings"
    (fun n ->
      match Yamlite.get_list n with
      | Some l when List.for_all (fun x -> Yamlite.get_string x <> None) l ->
          Some (List.filter_map Yamlite.get_string l)
      | _ -> None)
    key

let decode_attrs ~mod_name table init attrs =
  let fail key problem = raise (Bad_attr { mod_name; key; problem }) in
  List.fold_left
    (fun v (key, n) ->
      match List.assoc_opt key table with
      | Some decode -> (
          try decode v n
          with Rejected what ->
            fail key (Printf.sprintf "expected %s, got %s" what (Yamlite.to_string n)))
      | None ->
          let keys = List.map fst table in
          fail key
            (Printf.sprintf "unknown (%s reads %s)" mod_name
               (if keys = [] then "none" else String.concat ", " keys)))
    init attrs

(* A factory call; a bad attribute is an [Error]. *)
let build factory ~uuid ~attrs =
  try Ok (factory ~uuid ~attrs)
  with Bad_attr { mod_name; key; problem } ->
    Error (Printf.sprintf "%s attribute %s: %s" mod_name key problem)

let probe t ~mod_name ~attrs =
  match find_factory t mod_name with
  | None -> Error (Printf.sprintf "implementation %S is not installed" mod_name)
  | Some f -> Result.map (fun m -> m.Labmod.mod_type) (build f ~uuid:"__probe__" ~attrs)

let instantiate t ~mod_name ~uuid ~attrs =
  match Hashtbl.find_opt t.by_uuid uuid with
  | Some existing -> Ok existing
  | None -> (
      match find_factory t mod_name with
      | None -> Error (Printf.sprintf "no LabMod implementation named %S" mod_name)
      | Some factory -> (
          match build factory ~uuid ~attrs with
          | Ok m ->
              Hashtbl.replace t.by_uuid uuid m;
              Ok m
          | Error e -> Error (uuid ^ ": " ^ e)))

let find t uuid = Hashtbl.find_opt t.by_uuid uuid

let find_exn t uuid = Hashtbl.find t.by_uuid uuid

let replace t m = Hashtbl.replace t.by_uuid m.Labmod.uuid m

let remove t uuid = Hashtbl.remove t.by_uuid uuid

let instances t = Hashtbl.fold (fun _ m acc -> m :: acc) t.by_uuid []

let instances_of_name t name =
  List.filter (fun m -> m.Labmod.name = name) (instances t)

let binding t key = Itbl.find t.bindings key

let bind t key b = Itbl.replace t.bindings key b
