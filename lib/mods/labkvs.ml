(* LabKVS: the paper's example key-value store LabMod. Same design as
   LabFS (log-structured metadata, per-worker allocation) but put/get
   semantics: one operation creates the key and stores its value, versus
   the open-modify-close sequence POSIX requires. *)

open Lab_sim
open Lab_core

type entry = { mutable size : int; mutable first_block : int; mutable nblocks : int }

let block_size = 4096

type kv_state = {
  table : (string, entry) Hashtbl.t;
  alloc : Block_alloc.t;
  mutable log_bytes_pending : int;
  mutable log_lba : int;
  nworkers : int;
}

type Labmod.state += State of kv_state

let name = "labkvs"

let record_bytes = 48

let log_flush_threshold = 4096

let meta_cpu_ns = 600.0

let state_of m =
  match m.Labmod.state with
  | State s -> s
  | _ -> invalid_arg "labkvs: bad state"

let key_count m = Hashtbl.length (state_of m).table

let mem m key = Hashtbl.mem (state_of m).table key

let charge ctx ns = Machine.compute ctx.Labmod.machine ~thread:ctx.Labmod.thread ns

let log_append s ctx req =
  s.log_bytes_pending <- s.log_bytes_pending + record_bytes;
  if s.log_bytes_pending >= log_flush_threshold then begin
    let bytes = s.log_bytes_pending in
    s.log_bytes_pending <- 0;
    let lba = s.log_lba in
    s.log_lba <- s.log_lba + (bytes / block_size) + 1;
    let io =
      {
        req with
        Request.payload =
          Request.Block
            { Request.b_kind = Request.Write; b_lba = lba; b_bytes = bytes; b_sync = true };
      }
    in
    ctx.Labmod.forward_async io (fun _ -> ())
  end

let operate m ctx req =
  let s = state_of m in
  match req.Request.payload with
  | Request.Kv (Request.Put { key; bytes }) ->
      charge ctx meta_cpu_ns;
      let entry =
        match Hashtbl.find_opt s.table key with
        | Some e -> e
        | None ->
            let e = { size = 0; first_block = -1; nblocks = 0 } in
            Hashtbl.replace s.table key e;
            e
      in
      let needed =
        let covered = entry.nblocks * block_size in
        if bytes <= covered then 0
        else (bytes - covered + block_size - 1) / block_size
      in
      if needed > 0 then begin
        let worker = ctx.Labmod.thread mod s.nworkers in
        let blocks = Block_alloc.alloc s.alloc ~worker needed in
        if entry.first_block = -1 then entry.first_block <- List.hd blocks;
        entry.nblocks <- entry.nblocks + needed
      end;
      entry.size <- bytes;
      log_append s ctx req;
      let io =
        {
          req with
          Request.payload =
            Request.Block
              {
                Request.b_kind = Request.Write;
                b_lba = entry.first_block;
                b_bytes = bytes;
                b_sync = false;
              };
        }
      in
      ctx.Labmod.forward io
  | Request.Kv (Request.Get { key }) -> (
      charge ctx meta_cpu_ns;
      match Hashtbl.find_opt s.table key with
      | None -> Request.Failed ("labkvs: no such key " ^ key)
      | Some entry ->
          if entry.first_block = -1 then Request.Size 0
          else
            let io =
              {
                req with
                Request.payload =
                  Request.Block
                    {
                      Request.b_kind = Request.Read;
                      b_lba = entry.first_block;
                      b_bytes = entry.size;
                      b_sync = false;
                    };
              }
            in
            ctx.Labmod.forward io)
  | Request.Kv (Request.Delete { key }) -> (
      charge ctx meta_cpu_ns;
      match Hashtbl.find_opt s.table key with
      | None -> Request.Failed ("labkvs: no such key " ^ key)
      | Some entry ->
          Hashtbl.remove s.table key;
          if entry.first_block >= 0 then
            Block_alloc.free s.alloc ~worker:(ctx.Labmod.thread mod s.nworkers)
              (List.init entry.nblocks (fun i -> entry.first_block + i));
          log_append s ctx req;
          Request.Done)
  | Request.Posix _ | Request.Block _ | Request.Control _ ->
      Request.Failed "labkvs: expects KV requests"

let est m req =
  ignore m;
  match req.Request.payload with
  | Request.Kv (Request.Put { bytes; _ }) -> 1800.0 +. (0.05 *. Stdlib.float_of_int bytes)
  | _ -> 1200.0

let factory ~total_blocks ~nworkers : Registry.factory =
 fun ~uuid ~attrs ->
  Keys.decode [] () attrs;
  Labmod.make ~name ~uuid ~mod_type:Labmod.Kv_store
    ~state:
      (State
         {
           table = Hashtbl.create 4096;
           alloc = Block_alloc.create ~total_blocks ~workers:(Stdlib.max 1 nworkers) ();
           log_bytes_pending = 0;
           log_lba = 0;
           nworkers = Stdlib.max 1 nworkers;
         })
    {
      Labmod.operate;
      est_processing_time = est;
      state_update = Mod_util.identity_state;
      state_repair = Mod_util.no_repair;
    }
