open Lab_sim
open Lab_core

(* ------------------------------------------------------------------ *)
(* Pure ARC                                                            *)
(* ------------------------------------------------------------------ *)

module Arc = struct
  (* The four ARC lists, each an LRU ordering. T1/T2 hold resident
     pages; B1/B2 are ghosts (metadata only). *)
  type t = {
    cap : int;
    t1 : unit Lru.t;
    t2 : unit Lru.t;
    b1 : unit Lru.t;
    b2 : unit Lru.t;
    mutable p_val : int;  (* target size of t1, 0..cap *)
    mutable last_evicted : int option;
  }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Arc.create: capacity";
    {
      cap = capacity;
      t1 = Lru.create ();
      t2 = Lru.create ();
      b1 = Lru.create ();
      b2 = Lru.create ();
      p_val = 0;
      last_evicted = None;
    }

  let mem t k = Lru.mem t.t1 k || Lru.mem t.t2 k

  let live_count t = Lru.length t.t1 + Lru.length t.t2

  let ghost_count t = Lru.length t.b1 + Lru.length t.b2

  let p t = t.p_val

  let capacity t = t.cap

  let evicted t = t.last_evicted

  (* REPLACE: evict the LRU of t1 or t2 depending on p, moving the key
     to the matching ghost list. *)
  let replace t ~in_b2 =
    let from_t1 =
      let l1 = Lru.length t.t1 in
      l1 >= 1 && (l1 > t.p_val || (in_b2 && l1 = t.p_val))
    in
    let victim_list, ghost = if from_t1 then (t.t1, t.b1) else (t.t2, t.b2) in
    match Lru.lru victim_list with
    | Some (k, ()) ->
        ignore (Lru.remove victim_list k);
        ignore (Lru.put ghost k ());
        t.last_evicted <- Some k
    | None -> ()

  let trim_ghost ghost limit =
    while Lru.length ghost > limit do
      match Lru.lru ghost with
      | Some (k, ()) -> ignore (Lru.remove ghost k)
      | None -> ()
    done

  let touch t k =
    t.last_evicted <- None;
    if Lru.mem t.t1 k then begin
      (* Hit in recency list: promote to frequency list. *)
      ignore (Lru.remove t.t1 k);
      ignore (Lru.put t.t2 k ());
      true
    end
    else if Lru.touch t.t2 k then true
    else if Lru.mem t.b1 k then begin
      (* Ghost hit on the recency side: grow p. *)
      let delta = Stdlib.max 1 (Lru.length t.b2 / Stdlib.max 1 (Lru.length t.b1)) in
      t.p_val <- Stdlib.min t.cap (t.p_val + delta);
      replace t ~in_b2:false;
      ignore (Lru.remove t.b1 k);
      ignore (Lru.put t.t2 k ());
      false
    end
    else if Lru.mem t.b2 k then begin
      (* Ghost hit on the frequency side: shrink p. *)
      let delta = Stdlib.max 1 (Lru.length t.b1 / Stdlib.max 1 (Lru.length t.b2)) in
      t.p_val <- Stdlib.max 0 (t.p_val - delta);
      replace t ~in_b2:true;
      ignore (Lru.remove t.b2 k);
      ignore (Lru.put t.t2 k ());
      false
    end
    else begin
      (* Cold miss. Case IV of the paper's algorithm. *)
      let l1 = Lru.length t.t1 + Lru.length t.b1 in
      if l1 = t.cap then begin
        if Lru.length t.t1 < t.cap then begin
          (match Lru.lru t.b1 with
          | Some (g, ()) -> ignore (Lru.remove t.b1 g)
          | None -> ());
          replace t ~in_b2:false
        end
        else begin
          match Lru.lru t.t1 with
          | Some (v, ()) ->
              ignore (Lru.remove t.t1 v);
              t.last_evicted <- Some v
          | None -> ()
        end
      end
      else if live_count t + ghost_count t >= t.cap then begin
        if live_count t + ghost_count t >= 2 * t.cap then
          trim_ghost t.b2 (Stdlib.max 0 (Lru.length t.b2 - 1));
        if live_count t = t.cap then replace t ~in_b2:false
      end;
      ignore (Lru.put t.t1 k ());
      false
    end
end

(* ------------------------------------------------------------------ *)
(* The LabMod: the shared sharded engine with an ARC policy per shard   *)
(* ------------------------------------------------------------------ *)

type Labmod.state += State of { core : Cache_core.t; arcs : Arc.t array }

let name = "arc_cache"

let core m = match m.Labmod.state with State s -> Some s.core | _ -> None

let with_core m f = match core m with Some t -> f t | None -> 0

let hits m = with_core m Cache_core.hits

let misses m = with_core m Cache_core.misses

let arc_shards m = match m.Labmod.state with State s -> s.arcs | _ -> [||]

(* Adapt the pure ARC structure to the engine's policy interface. The
   factory collects each shard's Arc.t so tests can inspect ghost-list
   invariants per shard. *)
let arc_policy acc ~capacity =
  let a = Arc.create ~capacity in
  acc := a :: !acc;
  {
    Cache_core.pol_mem = (fun p -> Arc.mem a p);
    pol_touch = (fun p -> Arc.touch a p);
    pol_evicted =
      (fun () -> match Arc.evicted a with Some v -> v | None -> -1);
    pol_live = (fun () -> Arc.live_count a);
  }

(* Matched in place: [core]'s [Some] would cost every request 2 words. *)
let operate m ctx req =
  match m.Labmod.state with
  | State s -> Cache_core.operate s.core ctx req
  | _ -> Request.Failed "arc_cache: not initialized"

let est m req =
  ignore m;
  600.0 +. (0.35 *. Stdlib.float_of_int (Request.bytes_of req))

let factory ?env () : Registry.factory =
 fun ~uuid ~attrs ->
  let cfg = Cache_core.config_of_attrs ~name attrs in
  let acc = ref [] in
  let core =
    Cache_core.create ~policy:(arc_policy acc) ?env ~instance:uuid cfg
  in
  Labmod.make ~name ~uuid ~mod_type:Labmod.Cache
    ~state:(State { core; arcs = Array.of_list (List.rev !acc) })
    {
      Labmod.operate;
      est_processing_time = est;
      state_update = Mod_util.identity_state;
      state_repair = Mod_util.no_repair;
    }
