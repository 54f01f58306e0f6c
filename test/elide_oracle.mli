(** The per-poll elision loop over plain records: the reference
    [Engine]'s elision is checked against, as {!Heap} is for [Evq]. *)

type chain = {
  mutable key : float;  (** time of the pending poll *)
  mutable cseq : int;  (** seq of the pending poll *)
  mutable armed : bool;
  period : float;  (** negative treated as 0 *)
  deadline : float;
}

type t = {
  chains : chain array;
  mutable seq : int;  (** last seq handed out *)
  mutable elided : int;
  mutable bkey : float;  (** bound key: time *)
  mutable bseq : int;  (** bound key: seq *)
  horizon : float;
}

val catch_up : t -> bool
(** Elides, in (time, seq) order across the armed chains, every poll
    that sorts before the bound and is due by the horizon. Each takes
    the next seq and steps its chain's key by the period; a chain whose
    next key reaches its deadline is disarmed (its poll is queued), and
    when that poll sorts before the bound the bound drops to it and the
    result is true. *)
