type thread_id = int

(* Per-core state is kept free of boxed fields, so a burst allocates
   nothing beyond the wait's own continuation: the last thread is an
   int (-1 = none), and the floats live in a flat float array — a
   mutable float field in a mixed record would box on every store. *)
type core = {
  lock : Semaphore.t;
  mutable last_thread : thread_id;
  mutable switches : int;
  (* fl.(0) busy ns · fl.(1) end time of the burst currently charged to
     busy · fl.(2) that burst's length, staged for the engine's cell
     calls. The semaphore serializes bursts, so at most one is in flight
     per core; a sampler asking for busy time up to an instant inside
     the burst subtracts the not-yet-elapsed overhang (interval
     accounting). *)
  fl : float array;
}

type t = { costs : Costs.t; cores : core array; affinity : (thread_id, int) Hashtbl.t }

let create ?(costs = Costs.default) ~ncores () =
  if ncores <= 0 then invalid_arg "Cpu.create: ncores must be positive";
  let make_core _ =
    {
      lock = Semaphore.create 1;
      last_thread = -1;
      switches = 0;
      fl = [| 0.0; 0.0; 0.0 |];
    }
  in
  { costs; cores = Array.init ncores make_core; affinity = Hashtbl.create 64 }

let ncores t = Array.length t.cores

let pin t ~thread ~core =
  if core < 0 || core >= Array.length t.cores then invalid_arg "Cpu.pin: bad core";
  Hashtbl.replace t.affinity thread core

(* [Hashtbl.find] rather than [find_opt]: no [Some] per lookup. *)
let core_of t thread =
  match Hashtbl.find t.affinity thread with
  | c -> c
  | exception Not_found -> thread mod Array.length t.cores

(* The one burst body. Inlined into both entry points, so [ns] stays an
   unboxed float, held across a contended [acquire], and the burst is
   staged in the core's own cell once the core is ours. *)
let[@inline] burst t ~thread ns =
  let ns = if ns < 0.0 then 0.0 else ns in
  let c = t.cores.(core_of t thread) in
  Semaphore.acquire c.lock;
  let switch =
    if c.last_thread < 0 || c.last_thread = thread then 0.0
    else begin
      c.switches <- c.switches + 1;
      t.costs.ctx_switch_ns
    end
  in
  c.last_thread <- thread;
  let fl = c.fl in
  fl.(2) <- ns +. switch;
  fl.(0) <- fl.(0) +. fl.(2);
  Engine.set_after_cell fl 1 2;
  Engine.wait_cell fl 2;
  Semaphore.release c.lock

let compute t ~thread ns = burst t ~thread ns

(* The cell is read here, before [acquire] can suspend: a caller's cell
   may be restaged by another process while this one waits for the
   core. *)
let compute_cell t ~thread cells i = burst t ~thread cells.(i)

let context_switches t =
  Array.fold_left (fun acc c -> acc + c.switches) 0 t.cores

let busy_ns t = Array.fold_left (fun acc c -> acc +. c.fl.(0)) 0.0 t.cores

let busy_ns_of_core t i = t.cores.(i).fl.(0)

(* Busy nanoseconds of core [i] accumulated strictly up to [now]: the
   whole-burst charge made at burst start minus the part of an
   in-flight burst that lies beyond [now]. Exact for any [now] between
   the previous and current engine event, which is what gives a
   periodic sampler per-interval busy fractions instead of attributing
   a long burst entirely to the interval it began in. *)
let busy_ns_upto t i ~now =
  let c = t.cores.(i) in
  let overhang = Float.max 0.0 (c.fl.(1) -. now) in
  Float.max 0.0 (c.fl.(0) -. overhang)

let utilization t ~elapsed =
  if elapsed <= 0.0 then 0.0
  else Float.min 1.0 (busy_ns t /. (elapsed *. Stdlib.float_of_int (Array.length t.cores)))

let reset_stats t =
  Array.iter
    (fun c ->
      c.fl.(0) <- 0.0;
      c.switches <- 0)
    t.cores
