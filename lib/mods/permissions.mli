(** Permissions LabMod: per-request credential checks against a prefix
    ACL — the tunable access control the paper's Lab-Min configurations
    remove. Rules can be added while the stack is live. *)

open Lab_core

val factory : Registry.factory
(** Attribute: [default_allow] (default true) — the decision when no
    rule matches. *)

val add_rule : Labmod.t -> uid:int -> prefix:string -> allow:bool -> unit
(** Most recently added rule wins. *)
