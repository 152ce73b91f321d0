(** A persistent pool of OCaml domains running batches of tasks.

    This generalizes the bench harness's [-j N] pattern (spawn domains, race
    a shared atomic index over the cell array, join) into a reusable pool
    that survives across batches: the fleet tier runs one batch per
    simulation epoch — thousands per run — so the domains are spawned once
    at {!create} and parked on a condition variable between batches rather
    than re-spawned per epoch.

    Scheduling is work-claiming, not work-pushing: every participating
    domain (the [domains - 1] workers plus the caller of {!run}, which
    always joins in) claims the batch's tasks by index, with one
    compare-and-set on a claim word that carries the batch's generation
    next to the index.  Load balances itself — a domain stuck on a slow
    task simply claims fewer — and a straggler domain still holding an old
    batch fails its claim against the next batch's word, so it can never
    run work of the next one.  A batch over a caller-held array allocates
    nothing once the pool is warm.

    Domain-safety contract: tasks within one batch run concurrently and
    must not contend on shared mutable state (buffer per-task, merge after
    {!run} returns — see [Cluster.Fleet] for the canonical pattern).  [run]
    is a full barrier: every write a task made happens-before [run]'s
    return in the calling domain.  Task execution order within a batch is
    nondeterministic; determinism of results is the {e caller's} job, by
    making tasks independent and merging in a fixed order.  The task array
    must not be mutated while {!run} is in progress.

    A pool with [domains <= 1] spawns nothing and runs batches inline in
    the caller — same semantics, no parallelism — so callers can hold one
    code path for both. *)

type t

(** [create ~domains ()] spawns [domains - 1] worker domains
    ([domains] counts the caller, which participates in every batch). *)
val create : ?domains:int -> unit -> t

(** Total parallelism, caller included (always >= 1). *)
val size : t -> int

(** Run one batch to completion (a full barrier).  The caller's domain
    participates.  If any task raised, the first exception (in claim
    order of detection) is re-raised after the whole batch has settled;
    the remaining tasks still run.  A batch holds at most [2^30 - 1]
    tasks. *)
val run : t -> (unit -> unit) array -> unit

val map_list : t -> 'a list -> f:('a -> 'b) -> 'b list

(** Stop and join the worker domains.  Idempotent.  [run] after shutdown
    is an error. *)
val shutdown : t -> unit
