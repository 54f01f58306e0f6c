type trust = Trusted | Untrusted

type repo = { owner_uid : int; trust : trust; mod_names : string list }

type t = {
  runtime_uid : int;
  max_repos_per_user : int;
  table : (string, repo) Hashtbl.t;
}

let create ~runtime_uid ?(max_repos_per_user = 8) () =
  if max_repos_per_user <= 0 then invalid_arg "Repo.create: quota";
  { runtime_uid; max_repos_per_user; table = Hashtbl.create 8 }

let trust_of_mod t mod_name =
  let provided =
    Hashtbl.fold
      (fun _ r acc ->
        match acc with
        | Some _ -> acc
        | None -> if List.mem mod_name r.mod_names then Some r.trust else None)
      t.table None
  in
  Option.value provided ~default:Trusted

let repos_owned_by t uid =
  Hashtbl.fold (fun _ r acc -> if r.owner_uid = uid then acc + 1 else acc) t.table 0

let mount_repo t registry ~name ~owner_uid ~mods =
  if Hashtbl.mem t.table name then
    Error (Printf.sprintf "repo %S already mounted" name)
  else if repos_owned_by t owner_uid >= t.max_repos_per_user then
    Error
      (Printf.sprintf "uid %d exceeds the configured repo quota (%d)" owner_uid
         t.max_repos_per_user)
  else begin
    let collision =
      List.find_opt (fun (n, _) -> Registry.find_factory registry n <> None) mods
    in
    match collision with
    | Some (n, _) ->
        Error (Printf.sprintf "implementation %S is already installed" n)
    | None ->
        let trust = if owner_uid = t.runtime_uid then Trusted else Untrusted in
        List.iter (fun (n, f) -> Registry.register_factory registry ~name:n f) mods;
        Hashtbl.replace t.table name
          { owner_uid; trust; mod_names = List.map fst mods };
        Ok trust
  end

let unmount_repo t registry ~name =
  match Hashtbl.find_opt t.table name with
  | None -> Error (Printf.sprintf "no repo named %S" name)
  | Some r ->
      List.iter (fun n -> Registry.unregister_factory registry ~name:n) r.mod_names;
      Hashtbl.remove t.table name;
      Ok ()

let validate_stack_trust t (spec : Stack_spec.t) =
  match spec.Stack_spec.rules.Stack_spec.exec_mode with
  | Stack_spec.Sync -> Ok ()
  | Stack_spec.Async -> (
      let untrusted =
        List.find_opt
          (fun (v : Stack_spec.vertex) -> trust_of_mod t v.mod_name = Untrusted)
          spec.Stack_spec.dag
      in
      match untrusted with
      | None -> Ok ()
      | Some v ->
          Error
            (Printf.sprintf
               "%s (%s) comes from an untrusted repo: it must execute in a \
                separate address space from the Runtime (exec_mode: sync)"
               v.Stack_spec.uuid v.Stack_spec.mod_name))
