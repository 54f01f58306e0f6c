(* A fixed reference computation, run beside the measured work so that
   host cost can be read relative to the host's speed at that moment.

   On a 2-vCPU virtual machine on a shared host, the same round of the
   same seed took anywhere from 1x to 2x the CPU time, in episodes that
   last seconds to minutes: neighbours contend for caches, memory and
   the allocator's page supply. Process CPU time does not exclude that.
   The reference does what the simulator does most, in fixed amounts:
   short-lived allocation, hash-table updates that promote records to
   the major heap, and dependent loads through a table the size of a
   core's L2 cache. Its code never changes with the simulator, so its
   cost moves only with the host, and a measured host time divided by
   the reference time of the same moment cancels most of the episode.

   The reference allocates minor words, which callers subtract
   ([ref_words] of each run), and holds about 1 MiB of the major heap. *)

let steps = 20_000

(* What one reference step costs on a quiet host: a 2-vCPU Intel Xeon
   virtual machine (OCaml 5.1.1) measured 220 ns. Normalised host times
   read as ns on a host where a step takes exactly this long. *)
let nominal_ns_per_step = 220.0

let chase_entries = 1 lsl 17

let chase =
  lazy
    (let t = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout chase_entries in
     for i = 0 to chase_entries - 1 do
       Bigarray.Array1.unsafe_set t i (Int32.of_int i)
     done;
     (* Sattolo's shuffle: one cycle through every entry, so the chase
        never settles into a short loop. *)
     let st = Random.State.make [| 7919 |] in
     for i = chase_entries - 1 downto 1 do
       let j = Random.State.int st i in
       let a = Bigarray.Array1.unsafe_get t i in
       Bigarray.Array1.unsafe_set t i (Bigarray.Array1.unsafe_get t j);
       Bigarray.Array1.unsafe_set t j a
     done;
     t)

type node = { mutable hits : int; tag : int list }

let table_keys = 1 lsl 14

let table : (int, node) Hashtbl.t = Hashtbl.create table_keys

let pos = ref 0

let lcg = ref 12345

let sink = ref 0

let run () =
  let t = Lazy.force chase in
  let i = ref !pos and acc = ref 0 in
  for s = 1 to steps do
    i := Int32.to_int (Bigarray.Array1.unsafe_get t !i);
    lcg := ((!lcg * 1103515245) + 12345) land 0x3fffffff;
    let k = (!lcg lxor !i) land (table_keys - 1) in
    (match Hashtbl.find_opt table k with
    | Some n -> n.hits <- n.hits + 1
    | None -> ());
    if s land 7 = 0 then Hashtbl.replace table k { hits = s; tag = [ s ] };
    let tmp = Array.make 8 s in
    acc := !acc + tmp.(!i land 7)
  done;
  pos := !i;
  sink := !sink + !acc

type sample = { ref_s : float;  (** CPU seconds *) ref_words : float }

let timed () =
  let w0 = Gc.minor_words () in
  let c0 = Sys.time () in
  run ();
  let ref_s = Sys.time () -. c0 in
  { ref_s; ref_words = Gc.minor_words () -. w0 }

(* Multiply a host time measured beside a reference run of [ref_s]
   seconds by this to read it at the nominal speed. *)
let scale ref_s = nominal_ns_per_step *. float_of_int steps /. (ref_s *. 1e9)

(* Builds the tables and fills the hash table, so every later run does
   the same work. *)
let init () =
  ignore (Lazy.force chase);
  for k = 0 to table_keys - 1 do
    Hashtbl.replace table k { hits = 0; tag = [ k ] }
  done;
  ignore (timed ())
