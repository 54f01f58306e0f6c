open Lab_sim

type page = { page_index : int; mutable dirty : bool }

type t = {
  machine : Machine.t;
  psize : int;
  entries : page Lru.t;
  mutable hit_count : int;
  mutable miss_count : int;
}

let create machine ~capacity_pages ~page_size =
  if capacity_pages <= 0 then invalid_arg "Page_cache.create: capacity";
  {
    machine;
    psize = page_size;
    entries = Lru.create ~capacity:capacity_pages ();
    hit_count = 0;
    miss_count = 0;
  }

let page_size t = t.psize

let copy_cost t = t.machine.Machine.costs.Costs.copy_ns_per_byte *. Stdlib.float_of_int t.psize

let read t ~thread ~page_index =
  let costs = t.machine.Machine.costs in
  if Lru.touch t.entries page_index then begin
    t.hit_count <- t.hit_count + 1;
    Machine.compute t.machine ~thread (costs.Costs.cache_lookup_ns +. copy_cost t);
    true
  end
  else begin
    t.miss_count <- t.miss_count + 1;
    Machine.compute t.machine ~thread costs.Costs.cache_lookup_ns;
    false
  end

let insert_clean t ~thread ~page_index =
  let costs = t.machine.Machine.costs in
  Machine.compute t.machine ~thread (costs.Costs.cache_insert_ns +. copy_cost t);
  Lru.put t.entries page_index { page_index; dirty = false }
  |> Option.map (fun (_, p) -> p)

let write t ~thread ~page_index =
  let costs = t.machine.Machine.costs in
  Machine.compute t.machine ~thread (costs.Costs.cache_insert_ns +. copy_cost t);
  match Lru.find t.entries page_index with
  | Some p ->
      p.dirty <- true;
      None
  | None ->
      Lru.put t.entries page_index { page_index; dirty = true }
      |> Option.map (fun (_, p) -> p)

let dirty_pages t =
  (* fold iterates MRU-first; collect then reverse for LRU-first. *)
  Lru.fold (fun _ p acc -> if p.dirty then p :: acc else acc) t.entries []

let clean _t page = page.dirty <- false

let hits t = t.hit_count

let misses t = t.miss_count
