type t = {
  mutable data : float array;
  mutable n : int;
  mutable total : float;
  mutable sorted : bool;
}

let create () = { data = [||]; n = 0; total = 0.0; sorted = true }

let add t x =
  if t.n >= Array.length t.data then begin
    let cap = Stdlib.max 256 (2 * Array.length t.data) in
    let grown = Array.make cap 0.0 in
    Array.blit t.data 0 grown 0 t.n;
    t.data <- grown
  end;
  t.data.(t.n) <- x;
  t.n <- t.n + 1;
  t.total <- t.total +. x;
  t.sorted <- false

let count t = t.n

let sum t = t.total

let mean t = if t.n = 0 then 0.0 else t.total /. Stdlib.float_of_int t.n

let ensure_sorted t =
  if not t.sorted then begin
    let live = Array.sub t.data 0 t.n in
    Array.sort Float.compare live;
    Array.blit live 0 t.data 0 t.n;
    t.sorted <- true
  end

let percentile t p =
  if t.n = 0 then Float.nan
  else begin
    ensure_sorted t;
    let p = Float.min 100.0 (Float.max 0.0 p) in
    let rank = int_of_float (ceil (p /. 100.0 *. Stdlib.float_of_int t.n)) in
    let idx = Stdlib.max 0 (Stdlib.min (t.n - 1) (rank - 1)) in
    t.data.(idx)
  end

let clear t =
  t.n <- 0;
  t.total <- 0.0;
  t.sorted <- true
