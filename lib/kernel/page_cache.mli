(** Page cache model: LRU over page indices with dirty tracking.

    Reads and writes charge index-lookup and memcpy costs on the calling
    thread. Write-back of evicted dirty pages is the caller's job (the
    filesystem decides how to persist them). *)

type t

type page = { page_index : int; mutable dirty : bool }

val create : Lab_sim.Machine.t -> capacity_pages:int -> page_size:int -> t

val page_size : t -> int

val read : t -> thread:int -> page_index:int -> bool
(** True on hit (charges lookup + copy-out); false on miss (charges
    lookup only — the caller fetches from the device and must then call
    {!insert_clean}). *)

val insert_clean : t -> thread:int -> page_index:int -> page option
(** Adds a freshly-read page; returns an evicted page (possibly dirty)
    if capacity was exceeded. *)

val write : t -> thread:int -> page_index:int -> page option
(** Buffered write: copy-in + mark dirty; returns an evicted page if
    any. *)

val dirty_pages : t -> page list
(** Current dirty pages, least-recently-used first. *)

val clean : t -> page -> unit
(** Marks a page clean after write-back. *)

val hits : t -> int

val misses : t -> int
