(* bench_diff — regression gate over the BENCH_*.json artifacts.

   Usage: bench_diff BASELINE FRESH [THRESHOLD]

   Parses both files with a minimal JSON reader, flattens every
   numeric leaf to a dotted path ("stages[3].mean_ns"), and compares
   fresh against baseline: any leaf whose relative difference exceeds
   THRESHOLD (default 0.10) fails the run, as does a leaf present in
   one file but not the other. Booleans count as 0/1 so a flipped
   acceptance flag ("deterministic_export": false) always trips the
   gate. The simulator is deterministic, so on an unchanged tree the
   comparison is exact; the threshold only absorbs intentional small
   retunings.

   Two refinements for curve-shaped artifacts:

   - A baseline key "<name>_band" (a scalar fraction) widens the
     per-leaf threshold for "<name>" and its array points "<name>[i]"
     to max(THRESHOLD, band). Band keys are gate configuration, not
     metrics: they are never themselves compared or reported NEW.

   - Arrays named "*_curve" must preserve the baseline's monotone
     direction: if the baseline curve is non-decreasing
     (resp. non-increasing), the fresh one must be too, within the
     curve's per-point tolerance. A knee curve that starts regressing
     mid-sweep trips the gate even if every point is inside its band.

   Each numeric leaf has a better direction, read off its last path
   component (the name after the final "." with any "[i]" dropped):

   - lower is better for times and costs: names ending in "_ns",
     "_us" or "_ms", names containing "words", and names ending in
     "residual", "failures", "_per_page" or "ratio";
   - higher is better for rates and pass flags: names ending in
     "kops", "kiops", "gbps", "speedup", "hit_rate", "accuracy",
     "coverage", "covered", "elided", "_ok", "deterministic",
     "neutral", "consistent", "_export" or "_dump";
   - any other leaf (a count, a size, a setting, a fingerprint) has
     none.

   A "_curve" suffix is dropped before the rule applies. The rule reads
   names only, so a setting named like a metric (sampler_period_ns,
   rates_kops_curve) takes that metric's direction.

   A leaf outside its band prints IMPROVED when it moved the better
   way, REGRESS when it moved the worse way and CHANGED when it has no
   direction. All three fail the run: a baseline records what the code
   does, so an improvement is re-captured, not waved through.

   Exit 0 = within threshold; 1 = drift beyond a band (any direction);
   2 = usage/parse error. *)

(* ---------------- minimal JSON ---------------- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> fail "unterminated escape"
          | Some c ->
              advance ();
              (match c with
              | 'n' -> Buffer.add_char buf '\n'
              | 't' -> Buffer.add_char buf '\t'
              | 'r' -> Buffer.add_char buf '\r'
              | 'u' ->
                  (* keep the escape verbatim; paths never need it *)
                  Buffer.add_string buf "\\u"
              | c -> Buffer.add_char buf c);
              loop ())
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let numchar = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when numchar c -> true | _ -> false) do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match float_of_string_opt tok with
    | Some f -> Num f
    | None -> fail (Printf.sprintf "bad number %S" tok)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((key, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (elements [])
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing content";
  v

(* ---------------- flatten ---------------- *)

let flatten (j : json) : (string * float) list =
  let out = ref [] in
  let rec go path = function
    | Null | Str _ -> ()
    | Bool b -> out := (path, if b then 1.0 else 0.0) :: !out
    | Num f -> out := (path, f) :: !out
    | Arr l ->
        List.iteri (fun i v -> go (Printf.sprintf "%s[%d]" path i) v) l
    | Obj members ->
        List.iter
          (fun (k, v) ->
            go (if path = "" then k else path ^ "." ^ k) v)
          members
  in
  go "" j;
  List.rev !out

(* Curves: arrays of numbers whose key ends in "_curve", keyed by the
   same dotted path flatten gives their elements (minus the [i]). *)
let curves (j : json) : (string * float list) list =
  let out = ref [] in
  let num_of = function Num f -> Some f | Bool b -> Some (if b then 1.0 else 0.0) | _ -> None in
  let rec go path = function
    | Null | Bool _ | Num _ | Str _ -> ()
    | Arr l ->
        (match
           if String.length path >= 6 && Filename.check_suffix path "_curve"
           then
             List.fold_left
               (fun acc v ->
                 match (acc, num_of v) with
                 | Some xs, Some f -> Some (f :: xs)
                 | _ -> None)
               (Some []) l
           else None
         with
        | Some xs -> out := (path, List.rev xs) :: !out
        | None ->
            List.iteri (fun i v -> go (Printf.sprintf "%s[%d]" path i) v) l)
    | Obj members ->
        List.iter
          (fun (k, v) -> go (if path = "" then k else path ^ "." ^ k) v)
          members
  in
  go "" j;
  List.rev !out

(* ---------------- direction ---------------- *)

type better = Lower | Higher | Either

let lower_suffixes =
  [ "_ns"; "_us"; "_ms"; "residual"; "failures"; "_per_page"; "ratio" ]

let higher_suffixes =
  [
    "kops"; "kiops"; "gbps"; "speedup"; "hit_rate"; "accuracy"; "coverage";
    "covered"; "elided"; "_ok"; "deterministic"; "neutral"; "consistent";
    "_export"; "_dump";
  ]

(* The leaf's own name: "stages[3].p99_ns" -> "p99_ns",
   "p99_us_curve[2]" -> "p99_us_curve". *)
let leaf_name path =
  let name =
    match String.rindex_opt path '.' with
    | Some i -> String.sub path (i + 1) (String.length path - i - 1)
    | None -> path
  in
  match String.index_opt name '[' with
  | Some i -> String.sub name 0 i
  | None -> name

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let direction path =
  let name = leaf_name path in
  let curve = "_curve" in
  let name =
    if Filename.check_suffix name curve then
      String.sub name 0 (String.length name - String.length curve)
    else name
  in
  let ends = List.exists (Filename.check_suffix name) in
  if contains name "words" || ends lower_suffixes then Lower
  else if ends higher_suffixes then Higher
  else Either

(* ---------------- compare ---------------- *)

(* Relative difference with a small absolute guard: metrics that hover
   near zero (utilization of an idle worker, a residual) would
   otherwise flag on nanoscopic absolute change. *)
let abs_guard = 1e-6

let rel_diff base fresh =
  let denom = Float.max (Float.abs base) abs_guard in
  Float.abs (fresh -. base) /. denom

let () =
  let usage () =
    prerr_endline "usage: bench_diff BASELINE FRESH [THRESHOLD]";
    exit 2
  in
  let baseline_path, fresh_path, threshold =
    match Array.to_list Sys.argv with
    | [ _; b; f ] -> (b, f, 0.10)
    | [ _; b; f; t ] -> (
        match float_of_string_opt t with
        | Some t when t >= 0.0 -> (b, f, t)
        | _ -> usage ())
    | _ -> usage ()
  in
  let read path =
    let ic =
      try open_in_bin path
      with Sys_error e ->
        Printf.eprintf "bench_diff: %s\n" e;
        exit 2
    in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match parse text with
    | j -> j
    | exception Parse_error m ->
        Printf.eprintf "bench_diff: %s: %s\n" path m;
        exit 2
  in
  let base_json = read baseline_path and fresh_json = read fresh_path in
  let base = flatten base_json and fresh = flatten fresh_json in
  (* "<name>_band" keys in the BASELINE are per-metric tolerance
     overrides for "<name>" (and its points "<name>[i]"), not metrics. *)
  let is_band path = Filename.check_suffix path "_band" in
  let bands =
    List.filter_map
      (fun (path, v) ->
        if is_band path then
          Some (String.sub path 0 (String.length path - 5), v)
        else None)
      base
  in
  let leaf_threshold path =
    let covered (prefix, band) =
      if path = prefix || String.starts_with ~prefix:(prefix ^ "[") path then
        Some band
      else None
    in
    match List.find_map covered bands with
    | Some band -> Float.max threshold band
    | None -> threshold
  in
  (* Failures accumulate with a drift magnitude so the exit summary can
     rank them: structural problems (MISSING/NEW) outrank any numeric
     drift. *)
  let failures = ref [] in
  let flag ~drift fmt =
    Printf.ksprintf
      (fun m ->
        failures := (drift, m) :: !failures;
        print_endline m)
      fmt
  in
  List.iter
    (fun (path, b) ->
      if not (is_band path) then
        match List.assoc_opt path fresh with
        | None ->
            flag ~drift:infinity "MISSING  %-40s baseline=%g (absent in fresh)"
              path b
        | Some f ->
            let t = leaf_threshold path in
            let d = rel_diff b f in
            if d > t then
              let label =
                match direction path with
                | Either -> "CHANGED"
                | Lower -> if f < b then "IMPROVED" else "REGRESS"
                | Higher -> if f > b then "IMPROVED" else "REGRESS"
              in
              flag ~drift:d
                "%-8s %-40s baseline=%g fresh=%g (%+.1f%%, allowed ±%.0f%%)"
                label path b f
                (100.0 *. (f -. b) /. Float.max (Float.abs b) abs_guard)
                (100.0 *. t))
    base;
  List.iter
    (fun (path, f) ->
      if (not (is_band path)) && List.assoc_opt path base = None then
        flag ~drift:infinity "NEW      %-40s fresh=%g (absent in baseline)"
          path f)
    fresh;
  (* Monotone-direction preservation for "*_curve" arrays: the fresh
     curve must keep the direction the baseline establishes, each step
     within the curve's per-point tolerance. *)
  let directions l =
    let up = ref true and down = ref true in
    List.iteri
      (fun i x ->
        if i > 0 then begin
          let prev = List.nth l (i - 1) in
          if x < prev then up := false;
          if x > prev then down := false
        end)
      l;
    (!up, !down)
  in
  let monotone_within slack cmp l =
    let ok = ref true in
    List.iteri
      (fun i x ->
        if i > 0 then
          let prev = List.nth l (i - 1) in
          let tol = slack *. Float.max (Float.abs prev) abs_guard in
          if not (cmp x prev tol) then ok := false)
      l;
    !ok
  in
  let non_decr slack l = monotone_within slack (fun x p tol -> x >= p -. tol) l in
  let non_incr slack l = monotone_within slack (fun x p tol -> x <= p +. tol) l in
  let fresh_curves = curves fresh_json in
  List.iter
    (fun (path, bl) ->
      match List.assoc_opt path fresh_curves with
      | None -> () (* absence already reported leaf-by-leaf *)
      | Some fl ->
          let slack = leaf_threshold path in
          let up, down = directions bl in
          if up && not down && not (non_decr slack fl) then
            flag ~drift:infinity
              "MONOTONE %-40s baseline non-decreasing, fresh regresses \
               mid-curve" path
          else if down && not up && not (non_incr slack fl) then
            flag ~drift:infinity
              "MONOTONE %-40s baseline non-increasing, fresh rises \
               mid-curve" path
          else if up && down && not (non_decr slack fl || non_incr slack fl)
          then
            flag ~drift:infinity
              "MONOTONE %-40s baseline constant, fresh is non-monotone"
              path)
    (curves base_json);
  match !failures with
  | [] ->
      Printf.printf "bench_diff: %s vs %s: %d metrics within %.0f%%\n"
        baseline_path fresh_path (List.length base) (100.0 *. threshold)
  | fs ->
      (* Rank by drift so the culprit is the first thing on screen even
         when a cascade trips dozens of leaves: the biggest numeric
         drifts (structural breaks first) are usually the cause, the
         rest downstream noise. *)
      let ranked =
        List.stable_sort (fun (a, _) (b, _) -> Float.compare b a) (List.rev fs)
      in
      let n = List.length fs in
      Printf.printf "worst %d of %d drifting leaves:\n" (Stdlib.min 5 n) n;
      List.iteri
        (fun i (_, line) -> if i < 5 then Printf.printf "  %d. %s\n" (i + 1) line)
        ranked;
      Printf.printf
        "bench_diff: %d of %d metric(s) outside %.0f%% of %s — if intentional, \
         regenerate the baseline from a smoke run and commit it\n"
        n (List.length base) (100.0 *. threshold) baseline_path;
      exit 1
