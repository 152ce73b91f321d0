(** Enoki-C: the in-kernel half of the framework.

    Sits between the core scheduling code ({!Kernsim.Machine}) and a loaded
    scheduler module.  Each scheduler-class hook calls the module's matching
    {!Sched_trait.S} function directly with plain data, and a crossing
    allocates nothing: the {!Schedulable} tokens it mints are immediate
    ints.  Enoki-C mints and validates those capabilities against its own
    per-pid table (current and last returned generation), tracks task
    runtimes on the scheduler's behalf, hands user hints straight to the
    module's [parse_hint], charges the framework's per-invocation overhead
    in simulated time, and implements live upgrade behind a quiescing
    read-write lock (§3, §3.2).  The {!Message} form of a call is built
    only for the record tap; replay feeds decoded messages back through
    {!Lib_enoki.process}.

    Usage: [let h = Enoki_c.create (module My_sched) in
            Machine.create ~classes:[ Enoki_c.factory h ] ... ] *)

type t

(** [create (module S)] prepares a registration.  The scheduler itself is
    constructed when the machine instantiates the factory (module load
    time).  [policy] is the id user tasks use to attach (defaults to the
    class's position, 0).  [record] enables the record tap.  [tracer]
    attaches a schedtrace sink: Enoki-C then emits [Msg_call] at every
    boundary crossing, [Pnt_err] for every rejected Schedulable (and bad
    [select_task_rq] reply), and the acquire/release events of the
    module's locks.  The module's locks ({!Ctx.t.locks}) report to this
    instance's recorder and tracer only.

    The module-panic boundary is always armed: an exception raised by
    the scheduler module out of any hook is caught, the module is
    quarantined, and the class fails over to a built-in kernsim CFS
    instance so the machine keeps scheduling (ghOSt's fallback-to-CFS,
    the paper's "kernel survives module bugs" property).

    [call_budget] bounds the simulated time one dispatch may charge
    through [Ctx.charge]; exceeding it counts a ["call_budget"] violation
    and emits an [Overrun] trace event (the infinite-loop stand-in a
    watchdog keys on).

    [registry] attaches a metrics registry: the boundary then keeps
    total and per-callback crossing counters, a per-call simulated-ns
    histogram, and panic/failover/overrun/violation counters in it.
    [profile] attaches a self-profiler attributing simulated and host
    wall-clock ns to each callback kind (the paper's Table-3 breakdown).
    Neither ever charges simulated time. *)
val create :
  ?policy:int ->
  ?record:Record.t ->
  ?tracer:Trace.Tracer.t ->
  ?registry:Metrics.Registry.t ->
  ?profile:Profile.t ->
  ?call_budget:Kernsim.Time.ns ->
  (module Sched_trait.S) ->
  t

(** The scheduler-class factory to hand to {!Kernsim.Machine.create}. *)
val factory : t -> Kernsim.Sched_class.factory

(** Live-upgrade to a new scheduler version: quiesce (write-lock), call the
    old module's [reregister_prepare], the new one's [reregister_init] with
    the transferred state, swap the dispatch pointer, release.  Returns
    [Error] (old scheduler still registered) if the new version rejects the
    state shape. *)
val upgrade : t -> (module Sched_trait.S) -> (Upgrade.stats, exn) result

(** Name of the currently registered scheduler version. *)
val scheduler_name : t -> string

(** Total scheduler invocations dispatched. *)
val calls : t -> int

(** Schedulable validation failures routed through [pnt_err]. *)
val violations : t -> int

(** Violations by kind ("wrong_cpu", "stale_generation", "consumed",
    "bad_select_cpu"), most frequent first. *)
val violation_breakdown : t -> (string * int) list

(** Upgrades performed, most recent first. *)
val upgrades : t -> Upgrade.stats list

(** Fault-isolation counters. *)
type failover_stats = {
  panics : int;  (** module exceptions caught at the dispatch boundary *)
  failovers : int;  (** quarantine transitions (fallback instantiations) *)
  overruns : int;  (** dispatches that exceeded the per-call budget *)
  quarantined : (string * Kernsim.Time.ns) option;
      (** reason and simulated time of the active quarantine, if any *)
  blackout : Kernsim.Time.ns option;
      (** ns from the most recent quarantine to the first successful
          fallback dispatch — how long the policy went unscheduled *)
}

val failover_stats : t -> failover_stats

(** [quarantined t] is [(failover_stats t).quarantined <> None], read
    without building the record: the fleet polls it every epoch. *)
val quarantined : t -> bool

(** [restore t ~pristine k] is the watchdog's recovery action.  At the next
    simulator step (recovery re-enters the scheduler, so it never runs
    inside the dispatch that detected the fault) it live-upgrades back to
    the version the most recent upgrade superseded, popping the version
    history on success; before any upgrade it upgrades to [pristine], the
    last known good module.  [k] receives the result. *)
val restore :
  t -> pristine:(module Sched_trait.S) -> ((Upgrade.stats, exn) result -> unit) -> unit

(** For the tests only. *)
module Private : sig
  (** Hints handed to the module's [parse_hint] (its crossings). *)
  val hints_parsed : t -> int
end
