(** Per-CPU bounded event rings with online subscribers.

    The tracer mirrors the record subsystem's transport discipline (§3.4 of
    the paper): events are pushed from "kernel" context onto fixed-capacity
    per-cpu ring buffers and drained later; overruns drop the newest events
    and are counted, never blocking the emitter.  Subscribers (the online
    {!Sanitizer}) additionally observe every event at emission time, before
    any drop, so invariant checking sees the complete stream even when the
    rings overrun.

    Storage is struct-of-arrays int columns, not boxed {!Event.t} values:
    the hot kinds the machine emits carry at most three small ints, and the
    packed [emit_*] entry points below write them without constructing a
    variant or option — tracing-on runs stay allocation-free on the event
    path.  Cold (string-carrying) kinds fall back to a boxed side column.
    Decoding back to {!Event.t} happens at {!events}-drain time, or per
    event when a subscriber is attached.

    When no tracer is attached, emitters skip a single [option] match — the
    zero-cost-when-disabled contract the machine relies on. *)

type t

(** [create ~nr_cpus ()] makes one ring of [capacity] (default 65536)
    events per cpu. *)
val create : ?capacity:int -> nr_cpus:int -> unit -> t

val nr_cpus : t -> int

(** [emit t ~ts ~cpu kind] appends an event: pushed onto [cpu]'s ring
    (dropped and counted when full) and delivered to every subscriber.
    Out-of-range cpus are folded onto cpu 0 rather than lost.  Hot kinds
    are re-packed into the int columns, so storage and drain order are
    identical whichever entry point an event came in by. *)
val emit : t -> ts:int -> cpu:int -> Event.kind -> unit

(** {2 Packed emitters}

    Allocation-free equivalents of {!emit} for the machine's hot kinds:
    the payload travels as ints, [-1] meaning "no task" where a pid is
    optional.  [emit_wakeup] is the affinity-free wakeup; a wakeup
    carrying an affinity mask must go through {!emit}. *)

val emit_switch : t -> ts:int -> cpu:int -> prev:int -> next:int -> unit
val emit_wakeup : t -> ts:int -> cpu:int -> pid:int -> waker_cpu:int -> unit
val emit_dispatch : t -> ts:int -> cpu:int -> pid:int -> unit
val emit_preempt : t -> ts:int -> cpu:int -> pid:int -> unit
val emit_yield : t -> ts:int -> cpu:int -> pid:int -> unit
val emit_block : t -> ts:int -> cpu:int -> pid:int -> unit
val emit_exit : t -> ts:int -> cpu:int -> pid:int -> unit
val emit_migrate : t -> ts:int -> cpu:int -> pid:int -> from_cpu:int -> to_cpu:int -> unit
val emit_tick : t -> ts:int -> cpu:int -> unit
val emit_idle : t -> ts:int -> cpu:int -> unit

(** Register an online consumer, called synchronously on every emit. *)
val subscribe : t -> (Event.t -> unit) -> unit

(** Total events offered to the tracer (including later drops). *)
val emitted : t -> int

(** Events rejected because a ring was full. *)
val dropped : t -> int

val dropped_of_cpu : t -> int -> int

(** Events currently queued across all rings. *)
val buffered : t -> int

(** Drain every ring and return the merged stream in timestamp order,
    same-time events ordered by cpu, then by emission order on that cpu.
    Destructive: a second call returns only events emitted in between.
    Each cpu's ring is normally already in time order, and the rings are
    then k-way merged in one linear pass; a ring whose timestamps step
    backwards falls back to a stable sort, with the same result. *)
val events : t -> Event.t list
