type t = { mutable units : int; queue : unit Waitq.t }

let create n =
  if n < 0 then invalid_arg "Semaphore.create: negative count";
  { units = n; queue = Waitq.create () }

let try_acquire t =
  if t.units > 0 then begin
    t.units <- t.units - 1;
    true
  end
  else false

let acquire t =
  if not (try_acquire t) then begin
    let slot = ref None in
    Waitq.park t.queue slot
    (* The releaser transferred its unit directly to us. *)
  end

let release t = if not (Waitq.wake t.queue ()) then t.units <- t.units + 1

let waiters t = Waitq.length t.queue
