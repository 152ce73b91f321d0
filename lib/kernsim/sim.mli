(** The discrete-event engine: a virtual clock and an ordered queue of
    callbacks.

    Events at equal timestamps fire in scheduling order (a monotonically
    increasing sequence number breaks ties), which makes whole simulations
    deterministic.

    Two interchangeable queue backends exist.  The default, [`Pid_heap],
    keeps each event in a small-int slot (time, sequence number, heap
    position and callback columns) ordered by a {!Ds.Pid_heap}, the
    primitive under every run queue: O(log n) insert, pop and cancel,
    and no allocation once the slot columns have grown to the peak queue
    depth.  [`Heap] is the original boxed binary heap, kept as the
    semantic reference: both dispatch the exact same event stream for the
    same calls (see [test_core_equiv]). *)

type t

type backend = [ `Heap | `Pid_heap ]

(** [create ()] uses the [`Pid_heap] backend; pass [~backend:`Heap] for
    the reference heap. *)
val create : ?backend:backend -> unit -> t

val backend : t -> backend

val now : t -> Time.ns

(** [at t ~time f] schedules [f] to run when the clock reaches [time]
    (clamped to [now] if in the past). *)
val at : t -> time:Time.ns -> (unit -> unit) -> unit

(** [after t ~delay f] is [at t ~time:(now t + delay) f].
    @raise Invalid_argument if [delay] is negative (a negative delay is a
    cost-model bug; clamping would silently reorder same-tick events).
    Zero is legal. *)
val after : t -> delay:Time.ns -> (unit -> unit) -> unit

(** A reusable cancellable event cell.  One allocation at {!timer} time
    (on the default backend the timer owns one slot for life);
    re-arming and firing are allocation-free there, and {!cancel}
    actually removes the event instead of leaving a tombstone to be
    dead-dispatched. *)
type timer

(** [timer t f] makes a detached timer that runs [f] when it fires.
    The cell is tied to [t]: arming or cancelling it on another
    simulator is a bug, which raises [Invalid_argument] on the default
    backend and across backends. *)
val timer : t -> (unit -> unit) -> timer

(** Arm (or re-arm, replacing the previous arm) at an absolute time,
    clamped to [now].  Each arm takes a fresh tie-break sequence number,
    exactly as a fresh {!at} would. *)
val arm_at : t -> timer -> time:Time.ns -> unit

(** [arm_after t tm ~delay] is [arm_at t tm ~time:(now t + delay)].
    @raise Invalid_argument if [delay] is negative, as {!after}. *)
val arm_after : t -> timer -> delay:Time.ns -> unit

(** Disarm; no-op when not armed. *)
val cancel : t -> timer -> unit

(** True while armed and not yet fired. *)
val timer_pending : timer -> bool

(** Run events until the clock passes [until] or the queue empties.
    Events scheduled exactly at [until] are executed. *)
val run_until : t -> until:Time.ns -> unit

(** Run until the event queue is empty. *)
val run : t -> unit

val pending : t -> int

(** Number of events dispatched so far — the denominator for events/sec
    and bytes/event in [bench speed]. *)
val dispatched : t -> int
