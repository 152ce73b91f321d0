(** Dispatch queues — the sched_ext DSQ model inside Enoki.

    A [Dsq.t] is a named queue of Schedulable tokens, either FIFO (O(1)
    insert/consume at both ends) or vtime-ordered (consumed by least
    [(vtime, insertion seq)], so equal vtimes consume in stable FIFO
    order).  Entries sit in a {!Ds.Pid_fifo} slot pool with per-slot
    columns, in list order for FIFO and in a {!Ds.Pid_heap} keyed by
    [(vtime, seq)] for vtime.  Tokens are immediate ints, so steady-state
    queue traffic allocates nothing.  {!Dsq_sched} builds
    per-cpu local queues plus whatever shared/global queues a policy asks
    for, exactly like the kernel's per-cpu [SCX_DSQ_LOCAL] and
    user-created DSQs.

    Every queue is {!Enoki.Lock}-guarded, so record/replay reproduces the
    order of queue operations and the sanitizer's lock-pairing check holds.
    With a metrics registry attached ({!Enoki.Ctx.t.registry}) each queue
    exports a depth gauge probe ([dsq_depth_<name>]) and all queues share
    one enqueue-to-dispatch wait histogram ([dsq_dispatch_latency_ns]);
    inserts and consumes also emit [Dsq_insert]/[Dsq_consume] trace events,
    in packed form ({!Enoki.Ctx.t.trace_packed}).  Observability reads state
    only — detached, every probe is a no-op and scheduling behaviour is
    bit-identical. *)

type mode = Fifo | Vtime

(** A snapshot of one queued entry ({!to_list}). *)
type entry = {
  pid : int;
  token : Enoki.Schedulable.t;
  vtime : int;  (** ordering key in [Vtime] mode; carried verbatim in [Fifo] *)
  seq : int;  (** insertion sequence inside this queue (FIFO tie-break) *)
  inserted_at : int;  (** simulated ns at first insert, for dispatch latency *)
}

type t

(** [create ctx name] makes an empty queue wired to [ctx]'s clock,
    registry and trace sink (all inert under {!Enoki.Ctx.inert}). *)
val create : ?mode:mode -> Enoki.Ctx.t -> string -> t

(** The queue's name interned by {!Trace.Event.dsq_index}: a small int,
    equal for equal names.  {!Dsq_sched} names its queues uniquely and
    indexes them by it. *)
val id : t -> int

val length : t -> int

val is_empty : t -> bool

(** Lifetime insert/consume counts (trace-visible operations only). *)

(** Enqueue a token ([vtime] ignored for ordering in [Fifo] mode).  Emits
    [Dsq_insert] and stamps the entry for the latency histogram.  The
    token is never {!Enoki.Schedulable.none}. *)
val insert : t -> vtime:int -> Enoki.Schedulable.t -> unit

(** Dequeue the head (FIFO front, or least [(vtime, seq)]) and return its
    token, or {!Enoki.Schedulable.none} when empty.  Emits [Dsq_consume]
    and records the enqueue-to-consume wait. *)
val consume : t -> Enoki.Schedulable.t

(** Silent transfer primitives for the {!Dsq_sched} adapter: queue-to-queue
    moves keep the original insert stamp (latency measures enqueue to the
    final consume) and emit no events.  Each takes the source queue's lock,
    then the destination's. *)

(** [move_for t ~cpu ~into] moves the first entry (in consumption order)
    whose token licenses [cpu] to the back of [into], under a fresh seq,
    and returns its pid; [-1] when there is none. *)
val move_for : t -> cpu:int -> into:t -> int

(** Remove a queued task wherever it sits (block/exit/departure): its
    first entry in consumption order.  Returns the entry's token, or
    {!Enoki.Schedulable.none} when the pid is not queued. *)
val remove : t -> pid:int -> Enoki.Schedulable.t

(** [requeue t ~pid token ~into ~front] moves the pid's entry to [into],
    now holding [token] (balance-time migration replaces the token): at
    the back under a fresh seq, or, with [front], at the front keeping its
    seq, so a vtime entry keeps its place too.  Returns the old token;
    {!Enoki.Schedulable.none}, and nothing queued, when the pid was not in
    [t]. *)
val requeue : t -> pid:int -> Enoki.Schedulable.t -> into:t -> front:bool -> Enoki.Schedulable.t

(** The head's token, or {!Enoki.Schedulable.none} when empty. *)
val peek : t -> Enoki.Schedulable.t

(** For the tests only. *)
module Private : sig
  val inserts : t -> int

  val consumes : t -> int

  (** Consumption order. *)
  val to_list : t -> entry list
end
