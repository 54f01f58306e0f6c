(* Permissions LabMod: per-request credential checks against a rule
   table, the tunable access control the paper's Lab-Min configuration
   removes. Rules are prefix ACLs; absent rules fall back to the
   default policy. *)

open Lab_sim
open Lab_core

type rule = { uid : int; prefix : string; allow : bool }

type perm_state = { mutable rules : rule list; default_allow : bool }

type Labmod.state += State of perm_state

let name = "permissions"

let add_rule m ~uid ~prefix ~allow =
  match m.Labmod.state with
  | State s -> s.rules <- { uid; prefix; allow } :: s.rules
  | _ -> invalid_arg "permissions: bad state"

let target_of req =
  match req.Request.payload with
  | Request.Posix (Open { path; _ })
  | Request.Posix (Create { path })
  | Request.Posix (Unlink { path })
  | Request.Posix (Pread { path; _ })
  | Request.Posix (Pwrite { path; _ })
  | Request.Posix (Fsync { path; _ }) ->
      Some path
  | Request.Posix (Rename { src; _ }) -> Some src
  | Request.Posix (Close _) -> None
  | Request.Kv (Put { key; _ }) | Request.Kv (Get { key }) | Request.Kv (Delete { key })
    ->
      Some key
  | Request.Block _ | Request.Control _ -> None

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let decide s ~uid target =
  let rec go = function
    | [] -> s.default_allow
    | r :: rest ->
        if r.uid = uid && starts_with ~prefix:r.prefix target then r.allow
        else go rest
  in
  go s.rules

let operate m ctx req =
  match m.Labmod.state with
  | State s -> (
      let machine = ctx.Labmod.machine in
      Machine.compute machine ~thread:ctx.Labmod.thread
        machine.Machine.costs.Costs.permission_check_ns;
      match target_of req with
      | None -> ctx.Labmod.forward req
      | Some target ->
          if decide s ~uid:req.Request.uid target then ctx.Labmod.forward req
          else Request.Denied (Printf.sprintf "uid %d: %s" req.Request.uid target))
  | _ -> Request.Failed "permissions: bad state"

let attr_table = [ Keys.bool "default_allow" (fun _ b -> b) ]

let factory : Registry.factory =
 fun ~uuid ~attrs ->
  let default_allow = Keys.decode attr_table true attrs in
  Labmod.make ~name ~uuid ~mod_type:Labmod.Permissions
    ~state:(State { rules = []; default_allow })
    {
      Labmod.operate;
      est_processing_time = (fun _ _ -> 300.0);
      state_update = Mod_util.identity_state;
      state_repair = Mod_util.no_repair;
    }
