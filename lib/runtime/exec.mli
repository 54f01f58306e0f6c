(** LabStack executor: walks a request through a stack's DAG. On a
    traced request every LabMod hop emits a "mod" span (and the whole
    walk a "module_stack" stage span); per-layer exclusive time — the
    I/O anatomy — is derived from those spans by
    {!Lab_obs.Profile.exclusive}.

    Each (stack, thread) pair is bound once, on its first request: the
    successors of every vertex and one module context per vertex are
    built then and kept in the registry, so an untraced request and
    hop allocate nothing. A new stack record (a modified stack) or
    another machine rebinds. *)

val run :
  Lab_sim.Machine.t ->
  registry:Lab_core.Registry.t ->
  stack:Lab_core.Stack.t ->
  thread:int ->
  Lab_core.Request.t ->
  Lab_core.Request.result
(** Executes the entry LabMod; each mod's [forward] continues to its
    DAG successors (sequentially, last result wins). Instances are
    read from the binding's cache, which is re-read whenever the
    {!Lab_core.Registry.generation} has moved, so a
    {!Lab_core.Registry.replace} applies from the next hop on. A vertex
    whose instance is missing from the registry fails the request.
    Must run inside a simulated process. *)
