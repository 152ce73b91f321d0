(** The kernel-side scheduler-class interface.

    This is the simulator's rendering of Linux's [struct sched_class]: the
    hook set through which the core scheduling code ({!Machine}) drives a
    policy.  The native CFS implementation ({!Cfs}) implements it directly;
    the Enoki framework ({!Enoki_c} in [lib/core]) implements it once and
    forwards every hook to a loaded scheduler module as plain data, as the
    paper's Enoki-C does.

    A class receives {!Task.t} values (the kernel lets its schedulers read
    [task_struct]); the Enoki layer deliberately never forwards them to
    scheduler modules, passing plain data instead. *)

type ns = Time.ns

(** Capabilities the kernel grants a scheduler class. *)
type kernel_ops = {
  now : unit -> ns;
  nr_cpus : int;
  topology : Topology.t;
  costs : Costs.t;
  defer : delay:ns -> (unit -> unit) -> unit;
      (** run work later in kernel context (workqueue analogue); the record
          subsystem uses it for its userspace writer task *)
  resched_cpu : int -> unit;
      (** ask [cpu] to re-run its scheduler as soon as possible (an IPI when
          called from another cpu's context) *)
  set_timer : cpu:int -> ns -> unit;
      (** arm (or re-arm) the one-shot per-cpu scheduler timer to fire after
          the given delay; fires the class's [task_tick] *)
  cancel_timer : cpu:int -> unit;
  charge : cpu:int -> ns -> unit;
      (** account scheduling overhead to [cpu]; it delays the next dispatch *)
  send_user : pid:int -> Task.hint -> unit;
      (** deliver a kernel-to-user message to [pid]'s inbox *)
  current : cpu:int -> Task.t option;  (** task currently on [cpu] *)
  cpu_is_idle : int -> bool;
  find_task : int -> Task.t option;
      (** look up a task by pid (the kernel's pid table); classes use it to
          re-validate replies from untrusted modules *)
  live_tasks : policy:int -> Task.t list;
      (** every non-dead task attached to [policy], in spawn order; the
          authoritative list a fallback class adopts on failover *)
}

type t = {
  name : string;
  select_task_rq : Task.t -> waker_cpu:int -> int;
      (** choose the run-queue for a new or waking task *)
  task_new : Task.t -> cpu:int -> unit;
  task_wakeup : Task.t -> cpu:int -> waker_cpu:int -> unit;
  task_blocked : Task.t -> cpu:int -> unit;
  task_yield : Task.t -> cpu:int -> unit;
  task_preempt : Task.t -> cpu:int -> unit;
      (** the task was descheduled while still runnable *)
  task_dead : Task.t -> cpu:int -> unit;
  task_departed : Task.t -> cpu:int -> unit;
      (** the task switched to a different scheduling policy *)
  task_tick : cpu:int -> queued:bool -> unit;
      (** periodic tick, or the class's one-shot timer ([queued] = a task is
          running on the cpu) *)
  pick_next_task : cpu:int -> int;
      (** pid of the next task to run on [cpu], or -1 for none; the pid
          must be runnable and on [cpu]'s run-queue.  Int-encoded (not an
          option) so the per-schedule hot path never boxes the reply *)
  balance : cpu:int -> int;
      (** called before every pick and on ticks: pid of a task the class
          wants migrated to [cpu], or -1 for none *)
  balance_err : Task.t -> cpu:int -> unit;
      (** the migration requested by [balance] could not be performed *)
  migrate_task_rq : Task.t -> from_cpu:int -> to_cpu:int -> unit;
      (** the kernel moved the task's run-queue assignment *)
  task_prio_changed : Task.t -> unit;
  task_affinity_changed : Task.t -> unit;
  deliver_hint : Task.t -> Task.hint -> unit;
      (** a user-to-kernel hint arrived from this task *)
}

(** A class is built against the kernel's capability table at machine
    construction time. *)
type factory = kernel_ops -> t

(** A class whose every hook is a no-op and whose picks are always [None];
    useful as a base to override and in tests. *)
val noop : string -> t
