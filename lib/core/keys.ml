type 'a t = { name : string; set : 'a -> Yamlite.t -> 'a }

type error =
  | Unknown of { key : string; known : string list }
  | Duplicate of string
  | Bad of { key : string; problem : string }

exception Refused of error

(* What a setter raises; [decode] adds the key, and for [Expected] the
   value. *)
exception Expected of string

exception Invalid of string

let reject what = raise (Expected what)

let invalid problem = raise (Invalid problem)

let typed what get name set =
  { name; set = (fun v n -> match get n with Some x -> set v x | None -> reject what) }

let int name = typed "an int" Yamlite.get_int name

let float name = typed "a number" Yamlite.get_float name

let bool name = typed "a bool" Yamlite.get_bool name

let string name = typed "a string" Yamlite.get_string name

let strings name =
  typed "a list of strings"
    (function
      | Yamlite.Null -> Some []
      | Yamlite.List l when List.for_all (fun x -> Yamlite.get_string x <> None) l ->
          Some (List.filter_map Yamlite.get_string l)
      | _ -> None)
    name

let path name =
  typed "a string"
    (function
      | Yamlite.Null | Yamlite.Str "" -> Some None
      | Yamlite.Str s -> Some (Some s)
      | _ -> None)
    name

let custom name set = { name; set }

let rec known key = function [] -> false | k :: rest -> k.name = key || known key rest

let decode table init kvs =
  let rec check = function
    | [] -> ()
    | (key, _) :: rest ->
        if not (known key table) then
          raise (Refused (Unknown { key; known = List.map (fun k -> k.name) table }));
        if List.mem_assoc key rest then raise (Refused (Duplicate key));
        check rest
  in
  check kvs;
  List.fold_left
    (fun v k ->
      match List.assoc_opt k.name kvs with
      | None -> v
      | Some n -> (
          try k.set v n with
          | Expected what ->
              let problem =
                Printf.sprintf "expected %s, got %s" what (Yamlite.to_string n)
              in
              raise (Refused (Bad { key = k.name; problem }))
          | Invalid problem -> raise (Refused (Bad { key = k.name; problem }))))
    init table

let message = function
  | Unknown { key; _ } -> Printf.sprintf "unknown key %S" key
  | Duplicate key -> Printf.sprintf "duplicate key %S" key
  | Bad { key; problem } -> key ^ ": " ^ problem

let nested table init = function
  | Yamlite.Null -> init
  | Yamlite.Map kvs -> (
      try decode table init kvs with Refused e -> invalid (message e))
  | _ -> reject "a map"
