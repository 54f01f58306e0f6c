(* Flat recency list: an entry is a slot, and [keys], [prev] and [next]
   are int arrays indexed by slot. Slot 0 is the sentinel of the
   circular list: [next.(0)] is the MRU slot and [prev.(0)] the LRU
   slot, so unlinking needs no head/tail cases. Freed slots are chained
   through [next] from [free]; slots from [fresh] on were never used.

   [index] maps a key to its slot by open addressing: a bucket holds a
   slot (0 = free), its home is the top bits of the key times an odd
   constant (Fibonacci hashing), probes are linear, and a removal shifts
   the rest of its probe run back, so there are no tombstones. It
   doubles before it is more than half full, so a probe run always ends
   at a free bucket. The slot arrays grow by half when a new key finds
   every slot in use, and stop at [cap] + 1 slots.

   [vals] is [||] before the first put, [| v |] while every value put
   is physically [v], and one value per slot after that. *)

type 'v t = {
  cap : int;
  mutable len : int;
  mutable keys : int array;
  mutable prev : int array;  (* towards MRU *)
  mutable next : int array;  (* towards LRU *)
  mutable vals : 'v array;
  mutable free : int;
  mutable fresh : int;
  mutable index : int array;
  mutable shift : int;  (* [Sys.int_size] - log2 (Array.length index) *)
}

let golden = 0x4F1BBCDCBFA53E0B

let[@inline] home t k = (k * golden) lsr t.shift

let rec bits_for n b = if 1 lsl b >= 2 * n then b else bits_for n (b + 1)

let create ?capacity () =
  let cap =
    match capacity with
    | Some c when c <= 0 -> invalid_arg "Lru.create: capacity must be positive"
    | Some c -> c
    | None -> max_int
  in
  let slots = if cap < 16 then cap + 1 else 16 in
  let bits = bits_for (slots - 1) 1 in
  {
    cap;
    len = 0;
    keys = Array.make slots 0;
    prev = Array.make slots 0;
    next = Array.make slots 0;
    vals = [||];
    free = 0;
    fresh = 1;
    index = Array.make (1 lsl bits) 0;
    shift = Sys.int_size - bits;
  }

let length t = t.len

(* ------------------------------------------------------------------ *)
(* Index                                                               *)
(* ------------------------------------------------------------------ *)

(* The slot holding [k], or 0. *)
let rec slot_from t k i =
  let s = Array.unsafe_get t.index i in
  if s = 0 || Array.unsafe_get t.keys s = k then s
  else slot_from t k ((i + 1) land (Array.length t.index - 1))

let[@inline] slot t k = slot_from t k (home t k)

let rec place t s i =
  if Array.unsafe_get t.index i = 0 then Array.unsafe_set t.index i s
  else place t s ((i + 1) land (Array.length t.index - 1))

let rec bucket_of t s i =
  if Array.unsafe_get t.index i = s then i
  else bucket_of t s ((i + 1) land (Array.length t.index - 1))

(* Frees the bucket of slot [s], whose key is [k]. *)
let unindex t s k =
  let index = t.index in
  let mask = Array.length index - 1 in
  let hole = ref (bucket_of t s (home t k)) in
  let j = ref ((!hole + 1) land mask) in
  while index.(!j) <> 0 do
    let h = home t t.keys.(index.(!j)) in
    if (!j - h) land mask >= (!j - !hole) land mask then begin
      index.(!hole) <- index.(!j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  index.(!hole) <- 0

(* ------------------------------------------------------------------ *)
(* Values and slots                                                    *)
(* ------------------------------------------------------------------ *)

let[@inline] value t s =
  let vals = t.vals in
  if Array.length vals = 1 then vals.(0) else vals.(s)

let set_value t s v =
  let vals = t.vals in
  match Array.length vals with
  | 0 -> t.vals <- [| v |]
  | 1 ->
      if vals.(0) != v then begin
        let a = Array.make (Array.length t.keys) vals.(0) in
        a.(s) <- v;
        t.vals <- a
      end
  | _ -> vals.(s) <- v

(* Doubles the index and places every entry again. *)
let grow_index t =
  t.index <- Array.make (2 * Array.length t.index) 0;
  t.shift <- t.shift - 1;
  let s = ref t.next.(0) in
  while !s <> 0 do
    place t !s (home t t.keys.(!s));
    s := t.next.(!s)
  done

(* Grows the slot arrays by half, up to [cap] + 1 slots. *)
let grow_slots t =
  let n = Array.length t.keys in
  let n' = if n / 2 >= t.cap - n + 1 then t.cap + 1 else n + (n / 2) in
  let extend a fill =
    let a' = Array.make n' fill in
    Array.blit a 0 a' 0 n;
    a'
  in
  t.keys <- extend t.keys 0;
  t.prev <- extend t.prev 0;
  t.next <- extend t.next 0;
  if Array.length t.vals > 1 then t.vals <- extend t.vals t.vals.(0)

let take_slot t =
  if t.free <> 0 then begin
    let s = t.free in
    t.free <- t.next.(s);
    s
  end
  else begin
    if t.fresh = Array.length t.keys then grow_slots t;
    let s = t.fresh in
    t.fresh <- s + 1;
    s
  end

(* ------------------------------------------------------------------ *)
(* Recency list                                                        *)
(* ------------------------------------------------------------------ *)

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  t.next.(p) <- n;
  t.prev.(n) <- p

let push_front t s =
  let first = t.next.(0) in
  t.prev.(s) <- 0;
  t.next.(s) <- first;
  t.prev.(first) <- s;
  t.next.(0) <- s

let promote t s =
  if t.next.(0) <> s then begin
    unlink t s;
    push_front t s
  end

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

let mem t k = slot t k <> 0

let touch t k =
  let s = slot t k in
  s <> 0
  && begin
       promote t s;
       true
     end

let find t k =
  let s = slot t k in
  if s = 0 then None
  else begin
    promote t s;
    Some (value t s)
  end

let remove t k =
  let s = slot t k in
  if s = 0 then None
  else begin
    unlink t s;
    unindex t s k;
    t.next.(s) <- t.free;
    t.free <- s;
    t.len <- t.len - 1;
    Some (value t s)
  end

(* Binds [k] in slot [s] as the MRU entry. *)
let bind t s k v =
  t.keys.(s) <- k;
  set_value t s v;
  place t s (home t k);
  push_front t s

let put_evict t k v =
  let s = slot t k in
  if s <> 0 then begin
    set_value t s v;
    promote t s;
    -1
  end
  else if t.len < t.cap then begin
    t.len <- t.len + 1;
    if 2 * t.len > Array.length t.index then grow_index t;
    bind t (take_slot t) k v;
    -1
  end
  else begin
    (* Full: the LRU slot takes the new key. *)
    let victim = t.prev.(0) in
    let old = t.keys.(victim) in
    unlink t victim;
    unindex t victim old;
    bind t victim k v;
    old
  end

let put t k v =
  if t.len = t.cap && slot t k = 0 then begin
    let victim = t.prev.(0) in
    let evicted = (t.keys.(victim), value t victim) in
    ignore (put_evict t k v);
    Some evicted
  end
  else begin
    ignore (put_evict t k v);
    None
  end

let lru t =
  let s = t.prev.(0) in
  if s = 0 then None else Some (t.keys.(s), value t s)

let fold f t acc =
  let rec go s acc = if s = 0 then acc else go t.next.(s) (f t.keys.(s) (value t s) acc) in
  go t.next.(0) acc
