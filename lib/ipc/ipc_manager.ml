open Lab_sim

type connection = { pid : Shmem.process_id; uid : int; region : Shmem.region_id }

type 'req t = {
  engine : Engine.t;
  shm : Shmem.t;
  metrics : Lab_obs.Metrics.t option;
  timeseries : Lab_obs.Timeseries.t option;
  mutable next_qp_id : int;
  table : (int, 'req Qp.t) Hashtbl.t;
  mutable order : int list;  (* allocation order, newest first *)
  owners : (int, Shmem.process_id) Hashtbl.t;  (* qp id -> owner pid *)
  creds : (Shmem.process_id, int) Hashtbl.t;
  mutable is_online : bool;
  online_waiters : Waitq.t;
}

(* One-time UNIX-domain-socket handshake. *)
let handshake_ns = 30_000.0

let queue_region_bytes = 1 lsl 20

let create ?metrics ?timeseries engine =
  {
    engine;
    shm = Shmem.create ();
    metrics;
    timeseries;
    next_qp_id = 0;
    table = Hashtbl.create 64;
    order = [];
    owners = Hashtbl.create 64;
    creds = Hashtbl.create 16;
    is_online = true;
    online_waiters = Waitq.create ();
  }

let shmem t = t.shm

let connect t ~pid ~uid =
  Engine.wait handshake_ns;
  let region = Shmem.allocate t.shm ~owner:pid ~size:queue_region_bytes in
  Shmem.map t.shm region pid;
  Hashtbl.replace t.creds pid uid;
  { pid; uid; region }

let qps_of_connection t conn =
  Hashtbl.fold
    (fun id qp acc ->
      match Hashtbl.find_opt t.owners id with
      | Some pid when pid = conn.pid -> qp :: acc
      | _ -> acc)
    t.table []

let destroy_qp t qp =
  Hashtbl.remove t.table (Qp.id qp);
  Hashtbl.remove t.owners (Qp.id qp);
  t.order <- List.filter (fun id -> id <> Qp.id qp) t.order

let disconnect t conn =
  List.iter (destroy_qp t) (qps_of_connection t conn);
  Hashtbl.remove t.creds conn.pid;
  Shmem.unmap t.shm conn.region conn.pid;
  Shmem.free t.shm conn.region

let credentials t ~pid = Hashtbl.find_opt t.creds pid

let create_qp t conn ~role ~ordering =
  let id = t.next_qp_id in
  t.next_qp_id <- id + 1;
  let qp = Qp.create ?metrics:t.metrics ~role ~ordering ~id () in
  Hashtbl.replace t.table id qp;
  Hashtbl.replace t.owners id conn.pid;
  t.order <- id :: t.order;
  (* Queue pairs appear as clients connect, so their occupancy series
     self-register with the continuous-profiling sampler here. The
     probes only read ring counters. *)
  (match t.timeseries with
  | Some ts ->
      Lab_obs.Timeseries.add_series ts
        (Printf.sprintf "ipc.qp%d.sq_depth" id)
        (fun _now -> Stdlib.float_of_int (Qp.sq_depth qp));
      Lab_obs.Timeseries.add_series ts
        (Printf.sprintf "ipc.qp%d.cq_depth" id)
        (fun _now -> Stdlib.float_of_int (Qp.cq_depth qp))
  | None -> ());
  qp

let qp t id = Hashtbl.find_opt t.table id

let qps t =
  List.rev_map (fun id -> Hashtbl.find t.table id) t.order

let primary_qps t = List.filter (fun q -> Qp.role q = Qp.Primary) (qps t)

let online t = t.is_online

let set_online t b =
  let was = t.is_online in
  t.is_online <- b;
  if b && not was then ignore (Waitq.wake_all t.online_waiters)

let wait_online t ~timeout_ns =
  if t.is_online then true
  else begin
    let deadline = Engine.now t.engine +. timeout_ns in
    let rec loop () =
      if t.is_online then true
      else if Engine.now t.engine >= deadline then false
      else begin
        (* Re-check periodically so the timeout can fire even if nobody
           wakes us; wake-ups arrive sooner via the waitq. *)
        let woken = ref false in
        Engine.spawn t.engine (fun () ->
            Engine.wait (Float.min 1_000_000.0 (deadline -. Engine.now t.engine));
            if not !woken then ignore (Waitq.wake_all t.online_waiters));
        Waitq.park t.online_waiters;
        woken := true;
        loop ()
      end
    in
    loop ()
  end
