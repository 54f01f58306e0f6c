type 'a t = {
  capacity : int option;
  items : 'a Queue.t;
  getters : 'a Waitq.t;
  putters : unit Waitq.t;
}

let create ?capacity () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Mailbox.create: capacity must be positive"
  | _ -> ());
  { capacity; items = Queue.create (); getters = Waitq.create (); putters = Waitq.create () }

let length t = Queue.length t.items

let is_empty t = Queue.is_empty t.items

let is_full t =
  match t.capacity with None -> false | Some c -> Queue.length t.items >= c

(* Delivery: a put hands the item straight to a parked getter if any,
   otherwise enqueues it. *)
let deliver t v = if not (Waitq.wake t.getters v) then Queue.add v t.items

let try_put t v =
  if is_full t then false
  else begin
    deliver t v;
    true
  end

let rec put t v =
  if is_full t then begin
    let slot = ref None in
    Waitq.park t.putters slot;
    put t v
  end
  else deliver t v

let try_get t =
  match Queue.take_opt t.items with
  | Some v ->
      ignore (Waitq.wake t.putters ());
      Some v
  | None -> None

let get t =
  match try_get t with
  | Some v -> v
  | None ->
      let slot = ref None in
      Waitq.park t.getters slot;
      (match !slot with
      | Some v -> v
      | None -> assert false)
