(* LRU page-cache LabMod: a thin policy wrapper around the shared
   sharded cache engine (Cache_core), which provides sharding,
   sequential readahead and coalesced dirty write-back. *)

open Lab_core

type Labmod.state += State of Cache_core.t

let name = "lru_cache"

let core m = match m.Labmod.state with State t -> Some t | _ -> None

let with_core m f = match core m with Some t -> f t | None -> 0

let hits m = with_core m Cache_core.hits

let misses m = with_core m Cache_core.misses

let shard_counter_list m =
  match core m with Some t -> Cache_core.shard_counter_list t | None -> []

(* Matched in place: [core]'s [Some] would cost every request 2 words. *)
let operate m ctx req =
  match m.Labmod.state with
  | State t -> Cache_core.operate t ctx req
  | _ -> Request.Failed "lru_cache: not initialized"

let est m req =
  ignore m;
  500.0 +. (0.35 *. Stdlib.float_of_int (Request.bytes_of req))

let factory ?env () : Registry.factory =
 fun ~uuid ~attrs ->
  let cfg = Cache_core.config_of_attrs ~name attrs in
  Labmod.make ~name ~uuid ~mod_type:Labmod.Cache
    ~state:
      (State
         (Cache_core.create ~policy:Cache_core.lru_policy ?env ~instance:uuid
            cfg))
    {
      Labmod.operate;
      est_processing_time = est;
      state_update = Mod_util.identity_state;
      state_repair = Mod_util.no_repair;
    }
