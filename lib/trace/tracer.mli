(** Per-CPU bounded event rings with online subscribers.

    The tracer mirrors the record subsystem's transport discipline (§3.4 of
    the paper): events are pushed from "kernel" context onto fixed-capacity
    per-cpu ring buffers and drained later; overruns drop the newest events
    and are counted, never blocking the emitter.  Subscribers (the online
    {!Sanitizer}, the fault watchdog) additionally observe every event at
    emission time, before any drop, so invariant checking sees the complete
    stream even when the rings overrun.

    Storage is packed {!Slots}, not boxed {!Event.t} values: every kind
    emitted per dispatch — the machine's scheduling transitions, lock
    acquire/release and Enoki-C message crossings — is an {!Event.tag}
    and at most three ints, and the packed [emit_*] entry points below
    write them as four 64-bit words of the cpu's ring without
    constructing a variant or option.  Neither storing such an event nor
    delivering it to subscribers allocates.  Cold (string-carrying) kinds
    fall back to a boxed side column.
    Subscribers receive the packed fields; decoding back to {!Event.t}
    happens only at {!events}-drain time.

    When no tracer is attached, emitters skip a single [option] match — the
    zero-cost-when-disabled contract the machine relies on. *)

type t

(** [create ~nr_cpus ()] makes one ring of [capacity] (default 65536)
    events per cpu.  Capacity is reserved address space
    ([Slots.slot_bytes] = 32 bytes a slot), not filled memory: a ring's
    resident memory follows the slots written, so an 80-cpu tracer at the
    default capacity reserves 168 MB and adds under 1 MB to the resident
    set until it records.  Raises [Invalid_argument "Tracer.create: ..."]
    for a non-positive [nr_cpus] or [capacity], and for a [capacity]
    above {!Slots.max_capacity}, whose ring would not fit in one
    string. *)
val create : ?capacity:int -> nr_cpus:int -> unit -> t

(** [emit t ~ts ~cpu kind] appends an event: pushed onto [cpu]'s ring
    (dropped and counted when full) and delivered to every subscriber.
    Out-of-range cpus are folded onto cpu 0 rather than lost.  Kinds with
    a packed form ({!Event.pack}) are stored packed, so storage,
    subscriber deliveries and drain order are identical whichever entry
    point an event came in by. *)
val emit : t -> ts:int -> cpu:int -> Event.kind -> unit

(** {2 Packed emitters}

    Allocation-free equivalents of {!emit} for the per-dispatch kinds:
    the payload travels as ints, [-1] meaning "no task" where a pid is
    optional.  A field too wide for a slot's packed word (see {!Slots})
    is stored boxed instead, the one case where they allocate.  [emit_wakeup] is the affinity-free wakeup; a wakeup
    carrying an affinity mask must go through {!emit}.  [emit_msg_call]
    takes the crossing's index into {!Event.call_names}. *)

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
val emit_lock_acquire : t -> ts:int -> cpu:int -> lock_id:int -> unit
val emit_lock_release : t -> ts:int -> cpu:int -> lock_id:int -> unit
val emit_msg_call : t -> ts:int -> cpu:int -> call:int -> unit

(** [emit_tag t ~ts ~cpu tag a b c] emits any packed kind from its
    {!Event.tag} and fields (a DSQ event names its queue by
    {!Event.dsq_index}).  Raises [Invalid_argument] for [T_cold]. *)
val emit_tag : t -> ts:int -> cpu:int -> Event.tag -> int -> int -> int -> unit

(** An online consumer: [f ~ts ~cpu tag a b c kind] gets each event in its
    packed form ({!Event.pack}).  [kind] is the event itself for
    [T_cold] and meaningless for any other tag; {!Slots.unpack} rebuilds
    the boxed kind when a consumer needs one. *)
type subscriber = ts:int -> cpu:int -> Event.tag -> int -> int -> int -> Event.kind -> unit

(** Register an online consumer, called synchronously on every emit (the
    cpu already folded into range), in subscription order. *)
val subscribe : t -> subscriber -> unit

(** Total events offered to the tracer (including later drops). *)
val emitted : t -> int

(** Events rejected because a ring was full. *)
val dropped : t -> int

(** Events currently queued across all rings. *)
val buffered : t -> int

(** Drain every ring and return the merged stream in timestamp order,
    same-time events ordered by cpu, then by emission order on that cpu.
    Destructive: a second call returns only events emitted in between.
    Each cpu's ring is normally already in time order, and the rings are
    then k-way merged in one linear pass; a ring whose timestamps step
    backwards falls back to a stable sort, with the same result. *)
val events : t -> Event.t list

(** For the tests only. *)
module Private : sig
  val dropped_of_cpu : t -> int -> int
end
