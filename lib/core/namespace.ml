module Itbl = Lab_sim.Itbl

type t = {
  by_mount : (string, Stack.t) Hashtbl.t;
  by_id : Stack.t Itbl.t;
  mutable next_id : int;
}

let create () = { by_mount = Hashtbl.create 16; by_id = Itbl.create 8; next_id = 1 }

let mount t registry spec =
  let mountpoint = spec.Stack_spec.mount in
  if Hashtbl.mem t.by_mount mountpoint then
    Error (Printf.sprintf "mount point %S already in use" mountpoint)
  else
    match Stack.instantiate registry spec ~id:t.next_id with
    | Error _ as e -> e
    | Ok stack ->
        t.next_id <- t.next_id + 1;
        Hashtbl.replace t.by_mount mountpoint stack;
        Itbl.replace t.by_id stack.Stack.id stack;
        Ok stack

let unmount t mountpoint =
  match Hashtbl.find_opt t.by_mount mountpoint with
  | None -> Error (Printf.sprintf "nothing mounted at %S" mountpoint)
  | Some stack ->
      Hashtbl.remove t.by_mount mountpoint;
      Itbl.remove t.by_id stack.Stack.id;
      Ok ()

let lookup t mountpoint = Hashtbl.find t.by_mount mountpoint

let stack_by_id t id = Itbl.find t.by_id id

let parent path =
  match String.rindex_opt path '/' with
  | Some i when i > 0 -> Some (String.sub path 0 i)
  | Some 0 -> if String.length path > 1 then Some "/" else None
  | _ -> None

let rec resolve t path =
  match Hashtbl.find_opt t.by_mount path with
  | Some s -> Some s
  | None -> (
      match parent path with Some p -> resolve t p | None -> None)

let modify_stack t registry spec =
  let mountpoint = spec.Stack_spec.mount in
  match Hashtbl.find_opt t.by_mount mountpoint with
  | None -> Error (Printf.sprintf "nothing mounted at %S" mountpoint)
  | Some stack -> (
      match Stack.update_spec stack registry spec with
      | Error _ as e -> e
      | Ok fresh ->
          Hashtbl.replace t.by_mount mountpoint fresh;
          Itbl.replace t.by_id fresh.Stack.id fresh;
          Ok fresh)

let mounts t = Hashtbl.fold (fun k _ acc -> k :: acc) t.by_mount []

let stacks t = Hashtbl.fold (fun _ s acc -> s :: acc) t.by_mount []
