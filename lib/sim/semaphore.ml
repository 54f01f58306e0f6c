type t = { mutable units : int; queue : Waitq.t }

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
  if not (try_acquire t) then
    (* The releaser transfers its unit directly to us. *)
    Waitq.park t.queue

let release t = if not (Waitq.wake t.queue) then t.units <- t.units + 1

let waiters t = Waitq.length t.queue
