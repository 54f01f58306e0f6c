(** Module Registry: the key-value store of instantiated LabMods (keyed
    by UUID) plus the factories that model installed LabMod code
    ("repos" in the deployment model, i.e. loadable plug-ins). *)

type factory = uuid:string -> attrs:(string * Yamlite.t) list -> Labmod.t

type t

val create : unit -> t

(** {2 Factories (installed code)} *)

val register_factory : t -> name:string -> factory -> unit
(** Registers or replaces the implementation installed under [name]. *)

val unregister_factory : t -> name:string -> unit

val find_factory : t -> string -> factory option

val factory_names : t -> string list

(** {2 Attributes}

    A factory decodes its vertex's [attrs] with {!decode_attrs} and one
    table of its module's keys, so a key is accepted exactly when it is
    decoded. A setting no stack varies is a constant, not a key. *)

exception Bad_attr of { mod_name : string; key : string; problem : string }
(** A key the module does not read, or a value it cannot use:
    [problem] is ["unknown (m reads k1, k2)"] or
    ["expected an int, got \"big\""]. *)

type 'a attr
(** A key and the setter that folds its value into the settings ['a]. *)

val int_attr : string -> ('a -> int -> 'a) -> 'a attr

val float_attr : string -> ('a -> float -> 'a) -> 'a attr
(** Accepts ints too. *)

val bool_attr : string -> ('a -> bool -> 'a) -> 'a attr

val string_attr : string -> ('a -> string -> 'a) -> 'a attr

val strings_attr : string -> ('a -> string list -> 'a) -> 'a attr

val reject : string -> 'a
(** For a setter given a value it cannot use: [reject "0 or 1"] makes
    {!decode_attrs} raise ["expected 0 or 1, got 2"]. *)

val decode_attrs :
  mod_name:string -> 'a attr list -> 'a -> (string * Yamlite.t) list -> 'a
(** [decode_attrs ~mod_name table defaults attrs] folds [attrs], in
    spec order, into [defaults]. @raise Bad_attr *)

val probe :
  t -> mod_name:string -> attrs:(string * Yamlite.t) list ->
  (Labmod.mod_type, string) result
(** The one factory probe: the type of a throwaway ["__probe__"]
    instance built from [attrs] (factories keep it out of metrics and
    device watchers), or an [Error] naming a missing implementation or
    a bad attribute. *)

(** {2 Instances} *)

val instantiate :
  t -> mod_name:string -> uuid:string -> attrs:(string * Yamlite.t) list ->
  (Labmod.t, string) result
(** Returns the existing instance when [uuid] is already registered
    (mount semantics: a LabMod is only instantiated if its UUID is
    new); otherwise builds one from the factory. A bad attribute is an
    [Error] naming [uuid], the module and the key. *)

val find : t -> string -> Labmod.t option

val find_exn : t -> string -> Labmod.t
(** [find] without the option.
    @raise Not_found if no instance has that UUID. *)

val replace : t -> Labmod.t -> unit
(** Swaps the instance registered under the module's UUID (hot swap /
    upgrade). *)

val remove : t -> string -> unit

val generation : t -> int
(** Changes whenever {!instantiate} adds an instance or {!replace} or
    {!remove} runs, so a cache of instances read by UUID is current
    while this is the value it was built at. *)

val instances : t -> Labmod.t list

val instances_of_name : t -> string -> Labmod.t list
(** All instances built from the implementation called [name]. *)

(** {2 Executor bindings} *)

type binding = ..
(** What a stack executor precomputes for one (stack, thread) pair
    ([Lab_runtime.Exec] adds its own constructor). The registry owns
    the bindings, so they live and die with the platform whose stacks
    they wire and two platforms never share one. *)

val binding : t -> int -> binding
(** The binding stored under [key]; allocates nothing.
    @raise Not_found if nothing is bound under [key]. *)

val bind : t -> int -> binding -> unit
(** Stores (or replaces) the binding under [key]. *)
