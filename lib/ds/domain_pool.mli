(** A persistent pool of OCaml domains draining batches of tasks off an
    {!Spmc_queue}.

    This generalizes the bench harness's [-j N] pattern (spawn domains, race
    a shared atomic index over the cell array, join) into a reusable pool
    that survives across batches: the fleet tier runs one batch per
    simulation epoch — thousands per run — so the domains are spawned once
    at {!create} and parked on a condition variable between batches rather
    than re-spawned per epoch.

    Scheduling is SPMC work-claiming, not work-pushing: every participating
    domain (the [domains - 1] workers plus the caller of {!run}, which
    always joins in) claims tasks with one fetch-and-add each, so load
    balances itself — a domain stuck on a slow task simply claims fewer.
    Each batch publishes a {e fresh} queue; a straggler domain still
    draining an old batch can never claim work from the next one.

    Domain-safety contract: tasks within one batch run concurrently and
    must not contend on shared mutable state (buffer per-task, merge after
    {!run} returns — see [Cluster.Fleet] for the canonical pattern).  [run]
    is a full barrier: every write a task made happens-before [run]'s
    return in the calling domain.  Task execution order within a batch is
    nondeterministic; determinism of results is the {e caller's} job, by
    making tasks independent and merging in a fixed order.

    A pool with [domains <= 1] spawns nothing and runs batches inline in
    the caller — same semantics, no parallelism — so callers can hold one
    code path for both. *)

type t

(** [create ?on_task ~domains ()] spawns [domains - 1] worker domains
    ([domains] counts the caller, which participates in every batch).

    [on_task] runs in the claiming domain immediately before each task —
    the hook point for resetting domain-local state (e.g. the [Enoki.Lock]
    mode/tap context) so a task never inherits a predecessor's; exceptions
    it raises are accounted to the task. *)
val create : ?on_task:(unit -> unit) -> ?domains:int -> unit -> t

(** Total parallelism, caller included (always >= 1). *)
val size : t -> int

(** Run one batch to completion (a full barrier).  The caller's domain
    participates.  If any task raised, the first exception (in claim
    order of detection) is re-raised after the whole batch has settled;
    the remaining tasks still run. *)
val run : t -> (unit -> unit) array -> unit

val map_list : t -> 'a list -> f:('a -> 'b) -> 'b list

(** Cumulative [Gc.allocated_bytes] measured inside batch drains across
    every participating domain (caller included) — the figure the bench
    footer reports, since [Gc.allocated_bytes] alone is domain-local. *)
val allocated_bytes : t -> float

(** Stop and join the worker domains.  Idempotent.  [run] after shutdown
    is an error. *)
val shutdown : t -> unit
