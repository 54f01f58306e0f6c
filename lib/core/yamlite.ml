type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Map of (string * t) list

exception Parse_error of { line : int; message : string }

let fail line message = raise (Parse_error { line; message })

(* ---------------------------------------------------------------- *)
(* Lexing: lines with indentation, comments stripped                 *)
(* ---------------------------------------------------------------- *)

type line = { no : int; indent : int; body : string }

(* Remove a trailing comment that is not inside quotes. *)
let strip_comment s =
  let n = String.length s in
  let buf = Buffer.create n in
  let rec go i quote =
    if i >= n then Buffer.contents buf
    else
      let c = s.[i] in
      match quote with
      | Some q ->
          Buffer.add_char buf c;
          go (i + 1) (if c = q then None else quote)
      | None ->
          if c = '#' && (i = 0 || s.[i - 1] = ' ' || s.[i - 1] = '\t') then
            Buffer.contents buf
          else begin
            Buffer.add_char buf c;
            go (i + 1) (if c = '"' || c = '\'' then Some c else None)
          end
  in
  go 0 None

let lines_of_string text =
  let raw = String.split_on_char '\n' text in
  let _, acc =
    List.fold_left
      (fun (no, acc) l ->
        let l = strip_comment l in
        let l =
          if String.length l > 0 && l.[String.length l - 1] = '\r' then
            String.sub l 0 (String.length l - 1)
          else l
        in
        let indent =
          let rec count i =
            if i < String.length l && l.[i] = ' ' then count (i + 1) else i
          in
          count 0
        in
        let body = String.trim l in
        if body = "" || body = "---" then (no + 1, acc)
        else begin
          if String.contains l '\t' then
            fail no "tab characters are not allowed in indentation";
          (no + 1, { no; indent; body } :: acc)
        end)
      (1, []) raw
  in
  Array.of_list (List.rev acc)

(* ---------------------------------------------------------------- *)
(* Scalars                                                           *)
(* ---------------------------------------------------------------- *)

let parse_scalar no s =
  let s = String.trim s in
  if s = "" || s = "~" || s = "null" then Null
  else if s = "true" then Bool true
  else if s = "false" then Bool false
  else if String.length s >= 2 && (s.[0] = '"' || s.[0] = '\'') then begin
    let q = s.[0] in
    if s.[String.length s - 1] <> q then fail no "unterminated quoted string";
    Str (String.sub s 1 (String.length s - 2))
  end
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None when s.[0] = '{' ->
            (* A flow map would otherwise pass as a plain string. *)
            fail no
              (Printf.sprintf
                 "flow map %s is not supported: write it as an indented block, \
                  or quote a string"
                 s)
        | None -> Str s)

(* Inline flow list: [a, b, c]. Nested flow collections unsupported. *)
let parse_flow_list no s =
  let inner = String.sub s 1 (String.length s - 2) in
  if String.trim inner = "" then List []
  else
    List
      (List.map (fun item -> parse_scalar no item) (String.split_on_char ',' inner))

let parse_value no s =
  let s = String.trim s in
  if String.length s >= 2 && s.[0] = '[' && s.[String.length s - 1] = ']' then
    parse_flow_list no s
  else parse_scalar no s

(* ---------------------------------------------------------------- *)
(* Block structure                                                   *)
(* ---------------------------------------------------------------- *)

(* Split "key: value" at the first ':' that is followed by a space or
   ends the string and is outside quotes. Returns None if the line is
   not a mapping entry. *)
let split_key_value body =
  let n = String.length body in
  let rec go i quote =
    if i >= n then None
    else
      let c = body.[i] in
      match quote with
      | Some q -> go (i + 1) (if c = q then None else quote)
      | None ->
          if c = ':' && (i = n - 1 || body.[i + 1] = ' ') then
            Some (String.trim (String.sub body 0 i), String.trim (String.sub body (i + 1) (n - i - 1)))
          else go (i + 1) (if c = '"' || c = '\'' then Some c else None)
  in
  go 0 None

let unquote_key no k =
  if String.length k >= 2 && (k.[0] = '"' || k.[0] = '\'') then
    match parse_scalar no k with Str s -> s | _ -> k
  else k

let rec parse_block lines pos indent =
  if !pos >= Array.length lines then Null
  else
    let l = lines.(!pos) in
    if l.indent < indent then Null
    else if String.length l.body >= 1 && l.body.[0] = '-'
            && (String.length l.body = 1 || l.body.[1] = ' ') then
      parse_list lines pos l.indent
    else if split_key_value l.body <> None then parse_map lines pos l.indent
    else begin
      (* A bare scalar document. *)
      incr pos;
      parse_value l.no l.body
    end

and parse_list lines pos indent =
  let items = ref [] in
  let continue_loop = ref true in
  while !continue_loop && !pos < Array.length lines do
    let l = lines.(!pos) in
    if l.indent <> indent || String.length l.body = 0 || l.body.[0] <> '-' then
      continue_loop := false
    else begin
      let rest =
        if String.length l.body = 1 then ""
        else String.trim (String.sub l.body 1 (String.length l.body - 1))
      in
      incr pos;
      let item =
        if rest = "" then
          (* nested block belongs to this item if indented deeper *)
          if !pos < Array.length lines && lines.(!pos).indent > indent then
            parse_block lines pos lines.(!pos).indent
          else Null
        else
          match split_key_value rest with
          | Some (k, v) ->
              (* The item is an inline map whose further keys sit on the
                 following lines, indented past the dash. *)
              let first =
                if v = "" then
                  if !pos < Array.length lines && lines.(!pos).indent > indent + 1
                  then (unquote_key l.no k, parse_block lines pos lines.(!pos).indent)
                  else (unquote_key l.no k, Null)
                else (unquote_key l.no k, parse_value l.no v)
              in
              let rest_map =
                if !pos < Array.length lines && lines.(!pos).indent > indent then
                  match parse_map lines pos lines.(!pos).indent with
                  | Map kvs -> kvs
                  | Null -> []
                  | _ -> fail l.no "expected mapping continuation in list item"
                else []
              in
              Map (first :: rest_map)
          | None -> parse_value l.no rest
      in
      items := item :: !items
    end
  done;
  List (List.rev !items)

and parse_map lines pos indent =
  let entries = ref [] in
  let continue_loop = ref true in
  while !continue_loop && !pos < Array.length lines do
    let l = lines.(!pos) in
    if l.indent <> indent || (String.length l.body > 0 && l.body.[0] = '-') then
      continue_loop := false
    else
      match split_key_value l.body with
      | None -> fail l.no (Printf.sprintf "expected 'key: value', got %S" l.body)
      | Some (k, v) ->
          incr pos;
          let value =
            if v = "" then
              if !pos < Array.length lines && lines.(!pos).indent > indent then
                parse_block lines pos lines.(!pos).indent
              else Null
            else parse_value l.no v
          in
          entries := (unquote_key l.no k, value) :: !entries
  done;
  Map (List.rev !entries)

let parse text =
  let lines = lines_of_string text in
  if Array.length lines = 0 then Null
  else begin
    let pos = ref 0 in
    let v = parse_block lines pos lines.(0).indent in
    if !pos < Array.length lines then
      fail lines.(!pos).no "trailing content at unexpected indentation";
    v
  end

(* ---------------------------------------------------------------- *)
(* Accessors                                                         *)
(* ---------------------------------------------------------------- *)

let find v key =
  match v with Map kvs -> List.assoc_opt key kvs | _ -> None

let get_string = function Str s -> Some s | _ -> None

let get_int = function Int i -> Some i | _ -> None

let get_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None

let get_bool = function Bool b -> Some b | _ -> None

(* ---------------------------------------------------------------- *)
(* Serialization (round-trippable within the subset)                  *)
(* ---------------------------------------------------------------- *)

let needs_quoting s =
  s = "" || s = "~" || s = "null" || s = "true" || s = "false"
  || int_of_string_opt s <> None
  || float_of_string_opt s <> None
  || String.exists (fun c -> c = ':' || c = '#' || c = '"' || c = '\'' || c = '\n') s
  || s.[0] = ' ' || s.[0] = '-' || s.[0] = '[' || s.[0] = '{'
  || s.[String.length s - 1] = ' '

let scalar_to_yaml = function
  | Null -> "~"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f ->
      (* Keep a decimal point so it reads back as a float. *)
      let s = Printf.sprintf "%.17g" f in
      if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
      then s
      else s ^ ".0"
  | Str s -> if needs_quoting s then "\"" ^ s ^ "\"" else s
  | List _ | Map _ -> invalid_arg "scalar_to_yaml"

let serialize v =
  let buf = Buffer.create 256 in
  let pad n = String.make n ' ' in
  let all_scalars items =
    List.for_all
      (function Null | Bool _ | Int _ | Float _ | Str _ -> true | _ -> false)
      items
  in
  let flow_list items =
    "[" ^ String.concat ", " (List.map scalar_to_yaml items) ^ "]"
  in
  let rec emit_value indent v =
    (* Emits the value after "key:" or "- "; adds the final newline. *)
    match v with
    | Null | Bool _ | Int _ | Float _ | Str _ ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (scalar_to_yaml v);
        Buffer.add_char buf '\n'
    | List [] ->
        Buffer.add_string buf " []\n"
    | List items when all_scalars items ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (flow_list items);
        Buffer.add_char buf '\n'
    | List items ->
        Buffer.add_char buf '\n';
        List.iter (fun item -> emit_dash_item indent item) items
    | Map [] -> Buffer.add_string buf " ~\n"
    | Map kvs ->
        Buffer.add_char buf '\n';
        List.iter (fun (k, value) -> emit_entry (indent + 2) k value) kvs
  and emit_entry indent k value =
    Buffer.add_string buf (pad indent);
    Buffer.add_string buf (if needs_quoting k then "\"" ^ k ^ "\"" else k);
    Buffer.add_char buf ':';
    emit_value indent value
  and emit_dash_item indent item =
    Buffer.add_string buf (pad (indent + 2));
    Buffer.add_string buf "-";
    match item with
    | Null | Bool _ | Int _ | Float _ | Str _ | List _ ->
        (* Nested non-scalar lists fall back to flow/[] via emit_value;
           deeply nested block lists are outside the subset. *)
        emit_value (indent + 2) item
    | Map [] -> emit_value (indent + 2) item
    | Map ((k, value) :: rest) ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (if needs_quoting k then "\"" ^ k ^ "\"" else k);
        Buffer.add_char buf ':';
        emit_value (indent + 2) value;
        List.iter (fun (k, value) -> emit_entry (indent + 4) k value) rest
  in
  (match v with
  | Map kvs -> List.iter (fun (k, value) -> emit_entry 0 k value) kvs
  | List [] -> Buffer.add_string buf "[]\n"
  | List items when all_scalars items ->
      Buffer.add_string buf (flow_list items);
      Buffer.add_char buf '\n'
  | List items -> List.iter (fun item -> emit_dash_item (-2) item) items
  | scalar ->
      Buffer.add_string buf (scalar_to_yaml scalar);
      Buffer.add_char buf '\n');
  Buffer.contents buf

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> string_of_float f
  | Str s -> Printf.sprintf "%S" s
  | List l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Map kvs ->
      "{"
      ^ String.concat ", " (List.map (fun (k, v) -> k ^ ": " ^ to_string v) kvs)
      ^ "}"
