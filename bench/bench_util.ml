(* Shared table formatting and small helpers for the experiment
   harness. *)

let heading id title =
  Printf.printf "\n=== %s — %s ===\n" id title

let print_row widths cells =
  List.iteri
    (fun i cell ->
      let w = List.nth widths i in
      Printf.printf "%-*s" w cell;
      if i < List.length cells - 1 then print_string "  ")
    cells;
  print_newline ()

let print_table widths header rows =
  print_row widths header;
  print_row widths (List.map (fun w -> String.make w '-') widths);
  List.iter (print_row widths) rows

let f1 v = Printf.sprintf "%.1f" v

let f2 v = Printf.sprintf "%.2f" v

let f0 v = Printf.sprintf "%.0f" v

let kops v = Printf.sprintf "%.1fk" (v /. 1000.0)

let pct base v = Printf.sprintf "%+.0f%%" (100.0 *. (v -. base) /. base)

let note fmt = Printf.printf ("  " ^^ fmt ^^ "\n")

(* Smoke mode shrinks every experiment's workload for CI. Enabled by
   the --smoke flag, which main.ml records here. *)
let force_smoke = ref false

let smoke () = !force_smoke

(* Claims: an experiment states what its rows must show as named
   predicates, [<experiment>.<what>], with the bound in the condition
   and the measured values in the detail. A claim never exits: main.ml
   reports every failed one on stderr after the selected experiments
   have run, then exits 1. *)
let failures : (string * string) list ref = ref []

let claim name ok fmt =
  Printf.ksprintf
    (fun detail ->
      if not ok then failures := (name, detail) :: !failures)
    fmt

let failed_claims () = List.rev !failures

(* Minor-word budgets bind in native runs only: bytecode allocates
   differently. *)
let words_ok ok = ok || Sys.backend_type <> Sys.Native

(* Wall-clock self-measurement of the simulator. Off by default —
   wall-clock numbers vary run to run, and the default experiment
   output must stay byte-identical for the determinism checks — so the
   rate is only printed when LABSTOR_WALLCLOCK is set. *)
let wallclock_enabled () = Sys.getenv_opt "LABSTOR_WALLCLOCK" <> None

let time_events f =
  let t0 = Sys.time () in
  let events = f () in
  (events, Sys.time () -. t0)

let note_event_rate ~events ~wall_s =
  if wallclock_enabled () then
    if wall_s > 0.0 then
      note "simulator: %d events in %.2fs cpu (%.0fk events/sec)" events wall_s
        (Stdlib.float_of_int events /. wall_s /. 1000.0)
    else note "simulator: %d events (too fast to time)" events
