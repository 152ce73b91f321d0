(** The EnokiScheduler trait (Table 1 of the paper).

    A scheduler module implements this signature and nothing else: it
    manages only its own state in response to these calls.  The kernel's
    core scheduling code decides when each function is called, and Enoki-C
    ({!Enoki_c}) manages all kernel state.

    Schedulables passed in carry ownership; [pick_next_task] returns one as
    proof of a safe placement, and [migrate_task_rq] / [task_departed]
    return the superseded token.  A token is an immediate int, and
    {!Schedulable.none} stands for "no token" wherever one is optional, so
    a module can store, pass and return tokens without allocating.
    Shared mutable state inside the scheduler
    must be guarded with {!Lock} so record/replay can reproduce
    concurrency (§3.4). *)

type ns = Kernsim.Time.ns

module type S = sig
  type t

  val name : string

  (** Construct the scheduler (called when the module is loaded). *)
  val create : Ctx.t -> t

  (** The policy number user tasks use to attach to this scheduler. *)
  val get_policy : t -> int

  (** Pick the next task for [cpu]; {!Schedulable.none} when there is
      nothing to run.  [curr] is the (still runnable) current task's fresh
      token, or {!Schedulable.none}. *)
  val pick_next_task :
    t -> cpu:int -> curr:Schedulable.t -> curr_runtime:ns -> Schedulable.t

  (** The chosen task could not be scheduled; ownership of the rejected
      token returns to the scheduler ([sched] is never {!Schedulable.none}
      when Enoki-C calls it). *)
  val pnt_err : t -> cpu:int -> pid:int -> err:string -> sched:Schedulable.t -> unit

  val task_dead : t -> pid:int -> unit

  val task_blocked : t -> pid:int -> runtime:ns -> cpu:int -> unit

  val task_wakeup : t -> pid:int -> runtime:ns -> waker_cpu:int -> sched:Schedulable.t -> unit

  val task_new : t -> pid:int -> runtime:ns -> prio:int -> sched:Schedulable.t -> unit

  val task_preempt : t -> pid:int -> runtime:ns -> cpu:int -> sched:Schedulable.t -> unit

  val task_yield : t -> pid:int -> runtime:ns -> cpu:int -> sched:Schedulable.t -> unit

  (** A task left this scheduler; return the token it held, or
      {!Schedulable.none}. *)
  val task_departed : t -> pid:int -> cpu:int -> Schedulable.t

  val task_affinity_changed : t -> pid:int -> allowed:int list -> unit

  val task_prio_changed : t -> pid:int -> prio:int -> unit

  (** A timer fired on [cpu] (the periodic tick, or a timer this scheduler
      armed via {!Ctx.t.set_timer}).  [queued] = a task is running there. *)
  val task_tick : t -> cpu:int -> queued:bool -> unit

  (** Choose the run-queue for a task; [allowed] is the task's cpumask
      and the returned cpu must be drawn from it. *)
  val select_task_rq : t -> pid:int -> waker_cpu:int -> allowed:int list -> int

  (** The kernel moved [pid] to a new run-queue; [sched] is the token for
      the new cpu.  Return the old token, or {!Schedulable.none}
      (ownership discipline: the scheduler should hold validation for at
      most one cpu). *)
  val migrate_task_rq : t -> pid:int -> sched:Schedulable.t -> Schedulable.t

  (** Offer a task (its pid) to migrate to [cpu] for load balancing, or
      [-1] for none. *)
  val balance : t -> cpu:int -> int

  val balance_err : t -> cpu:int -> pid:int -> sched:Schedulable.t -> unit

  (** Live upgrade (§3.2): export state to the next version... *)
  val reregister_prepare : t -> Upgrade.transfer option

  (** ...and claim state from the previous one.  Must raise
      {!Upgrade.Incompatible} on an unrecognised transfer shape. *)
  val reregister_init : Ctx.t -> Upgrade.transfer option -> t

  (** A user-to-kernel hint arrived (Enoki-C drains the registered hint
      ring and synchronously parses each entry, §3.3). *)
  val parse_hint : t -> pid:int -> hint:Kernsim.Task.hint -> unit
end

(** No-op implementations of the optional surface, for inclusion:
    [include Sched_trait.Defaults (struct type nonrec t = t end)] then
    shadow what the scheduler actually implements.  Every in-tree module
    (and [Dsq_sched.Make]) includes it, so a hook a module leaves
    out is a no-op written once, here. *)
module Defaults (T : sig
  type t
end) : sig
  val pnt_err : T.t -> cpu:int -> pid:int -> err:string -> sched:Schedulable.t -> unit

  val task_yield : T.t -> pid:int -> runtime:ns -> cpu:int -> sched:Schedulable.t -> unit

  val task_affinity_changed : T.t -> pid:int -> allowed:int list -> unit

  val task_prio_changed : T.t -> pid:int -> prio:int -> unit

  val task_tick : T.t -> cpu:int -> queued:bool -> unit

  val balance : T.t -> cpu:int -> int

  val balance_err : T.t -> cpu:int -> pid:int -> sched:Schedulable.t -> unit

  val reregister_prepare : T.t -> Upgrade.transfer option

  val parse_hint : T.t -> pid:int -> hint:Kernsim.Task.hint -> unit
end

(** A scheduler module packed with an instance of its state. *)
type packed = Packed : (module S with type t = 'a) * 'a -> packed
