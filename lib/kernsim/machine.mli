(** The simulated multicore machine and its core scheduling loop.

    [Machine] plays the role of Linux's core scheduling code ("sched core"
    in Figure 1 of the paper): it owns the authoritative task states and
    run-queue assignments, drives scheduler classes through the
    {!Sched_class} hook set (balance before every pick, wakeup and blocking
    notifications, periodic ticks), charges context-switch / IPI / framework
    overheads in simulated time, and executes task behaviours.

    Scheduler classes are given in priority order: the first class with a
    runnable task for a cpu wins the pick, which is how an Enoki scheduler
    coexists with (and cedes idle cycles to) CFS, as in §5.4's co-location
    experiment.  A task's [policy] field is an index into this list.

    Every event of a machine (segment ends, timers, wakeups, ticks) runs
    on one {!Sim}, which owns the machine's clock. *)

type t

type ns = Time.ns

(** [create ~topology ~classes ()] builds a machine.  [classes] are
    factories, instantiated with this machine's kernel capability table;
    list position = policy id = pick priority.  [tracer] attaches a
    schedtrace sink: the machine then emits a typed event for every
    wakeup, dispatch, context switch, preemption, block/yield/exit,
    migration, tick, and idle transition; with no tracer each emit site is
    a single [option] match.  [registry] attaches a metrics registry: the
    machine then keeps schedule/context-switch/migration counters, a
    wakeup-latency histogram, and runqueue-depth / busy-idle gauge probes
    in it — recording never charges simulated time, so an attached
    registry cannot change scheduling decisions. *)
val create :
  ?costs:Costs.t ->
  ?registry:Metrics.Registry.t ->
  ?tracer:Trace.Tracer.t ->
  topology:Topology.t ->
  classes:Sched_class.factory list ->
  unit ->
  t

val topology : t -> Topology.t

(** Simulator events dispatched so far — the denominator for the
    events/sec and bytes/event figures in [bench speed]. *)
val events_dispatched : t -> int

val costs : t -> Costs.t

val now : t -> ns

val metrics : t -> Accounting.t

(** Allocate a wait channel (counting semaphore) for task behaviours. *)
val new_chan : t -> int

(** Tasks currently blocked on a channel. *)
val chan_waiters : t -> int -> int

(** [signal t chan] performs a V on [chan] from outside any task — the
    external-ingress doorbell (a NIC interrupt delivering a request into
    the machine).  Wakes one waiter if any, otherwise leaves a credit for
    the next [Task.block]; the wakeup path is charged to cpu 0, the IRQ core.
    The cluster tier uses this to hand arriving flows to server tasks. *)
val signal : t -> int -> unit

(** Create a task; it becomes runnable immediately (the class's
    [select_task_rq] then [task_new] run first, as in §3.1's walkthrough). *)
val spawn : t -> Task.spec -> int

val find_task : t -> int -> Task.t option

(** All tasks ever spawned, in pid order. *)
val tasks : t -> Task.t list

(** Change a live task's allowed cpus; forwards [task_affinity_changed]. *)
val set_affinity : t -> pid:int -> int list option -> unit

(** Schedule an arbitrary callback into the simulation (used by benches to
    trigger live upgrades or metric-window resets mid-run). *)
val at : t -> delay:ns -> (unit -> unit) -> unit

(** Advance the simulation. *)
val run_until : t -> ns -> unit

(** [run_for t d] advances by [d] from the current clock. *)
val run_for : t -> ns -> unit

(** For the tests only. *)
module Private : sig
  (** Renice a live task; forwards [task_prio_changed] to its class. *)
  val set_nice : t -> pid:int -> nice:int -> unit

  (** Move a task to another scheduler class: the old class gets
      [task_departed] (returning any Schedulable it held, in the Enoki case)
      and the new class adopts the task through [task_new]. *)
  val set_policy : t -> pid:int -> policy:int -> unit
end
