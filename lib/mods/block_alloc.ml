(* Free space is kept as per-worker extent lists (start, len), avoiding
   per-block cells for multi-terabyte devices. *)

type t = {
  mutable partitions : (int * int) list array;  (* free extents per worker *)
  steal_chunk : int;
  mutable steal_count : int;
}

let create ~total_blocks ~workers ?(steal_chunk = 16384) () =
  if total_blocks <= 0 then invalid_arg "Block_alloc: total_blocks";
  if workers <= 0 then invalid_arg "Block_alloc: workers";
  let per = total_blocks / workers in
  let partitions =
    Array.init workers (fun w ->
        let start = w * per in
        let len = if w = workers - 1 then total_blocks - start else per in
        if len > 0 then [ (start, len) ] else [])
  in
  { partitions; steal_chunk; steal_count = 0 }

let workers t = Array.length t.partitions

let extent_total extents = List.fold_left (fun acc (_, l) -> acc + l) 0 extents

let free_blocks t =
  Array.fold_left (fun acc e -> acc + extent_total e) 0 t.partitions

(* Take up to n blocks from an extent list. Returns (blocks, rest). *)
let take_from extents n =
  let rec go acc extents n =
    if n = 0 then (acc, extents)
    else
      match extents with
      | [] -> (acc, [])
      | (start, len) :: rest ->
          if len <= n then
            go (List.rev_append (List.init len (fun i -> start + i)) acc) rest (n - len)
          else
            ( List.rev_append (List.init n (fun i -> start + i)) acc,
              (start + n, len - n) :: rest )
  in
  go [] extents n

let richest t ~excluding =
  let best = ref (-1) and best_free = ref 0 in
  Array.iteri
    (fun w extents ->
      if w <> excluding then begin
        let f = extent_total extents in
        if f > !best_free then begin
          best := w;
          best_free := f
        end
      end)
    t.partitions;
  if !best_free > 0 then Some !best else None

let rec alloc t ~worker n =
  if n < 0 then invalid_arg "Block_alloc.alloc: negative count";
  let worker = worker mod Array.length t.partitions in
  let got, rest = take_from t.partitions.(worker) n in
  t.partitions.(worker) <- rest;
  let missing = n - List.length got in
  if missing = 0 then got
  else
    match richest t ~excluding:worker with
    | None ->
        (* Roll back and fail: the device is full. *)
        t.partitions.(worker) <-
          List.map (fun b -> (b, 1)) got @ t.partitions.(worker);
        failwith "Block_alloc: out of blocks"
    | Some victim -> (
        t.steal_count <- t.steal_count + 1;
        let chunk = Stdlib.max missing t.steal_chunk in
        let stolen, vrest = take_from t.partitions.(victim) chunk in
        t.partitions.(victim) <- vrest;
        t.partitions.(worker) <-
          List.map (fun b -> (b, 1)) stolen @ t.partitions.(worker);
        (* If even the steal cannot satisfy the remainder, the blocks
           taken so far must go back before the failure propagates. *)
        match alloc t ~worker missing with
        | rest -> got @ rest
        | exception (Failure _ as e) ->
            t.partitions.(worker) <-
              List.map (fun b -> (b, 1)) got @ t.partitions.(worker);
            raise e)

let free t ~worker blocks =
  let worker = worker mod Array.length t.partitions in
  t.partitions.(worker) <-
    List.map (fun b -> (b, 1)) blocks @ t.partitions.(worker)

let steals t = t.steal_count

let resize t ~workers =
  if workers <= 0 then invalid_arg "Block_alloc.resize: workers";
  let all = Array.to_list t.partitions |> List.concat in
  let fresh = Array.make workers [] in
  (* Deal extents round-robin so the new pool starts roughly even. *)
  List.iteri (fun i e -> fresh.(i mod workers) <- e :: fresh.(i mod workers)) all;
  t.partitions <- fresh
