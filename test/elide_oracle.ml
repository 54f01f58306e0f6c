type chain = {
  mutable key : float;
  mutable cseq : int;
  mutable armed : bool;
  period : float;
  deadline : float;
}

type t = {
  chains : chain array;
  mutable seq : int;
  mutable elided : int;
  mutable bkey : float;
  mutable bseq : int;
  horizon : float;
}

let before t1 s1 t2 s2 = t1 < t2 || (t1 = t2 && s1 < s2)

(* The least pending poll among the armed chains. *)
let least t =
  Array.fold_left
    (fun best c ->
      if not c.armed then best
      else
        match best with
        | Some b when not (before c.key c.cseq b.key b.cseq) -> best
        | _ -> Some c)
    None t.chains

let catch_up t =
  let lowered = ref false in
  let rec loop () =
    match least t with
    | Some c when before c.key c.cseq t.bkey t.bseq && c.key <= t.horizon ->
        t.elided <- t.elided + 1;
        t.seq <- t.seq + 1;
        c.cseq <- t.seq;
        c.key <- c.key +. Float.max 0.0 c.period;
        if c.key >= c.deadline then begin
          c.armed <- false;
          if before c.key c.cseq t.bkey t.bseq then begin
            t.bkey <- c.key;
            t.bseq <- c.cseq;
            lowered := true
          end
        end;
        loop ()
    | _ -> ()
  in
  loop ();
  !lowered
