(** Native CFS: the simulator's rendering of Linux's Completely Fair
    Scheduler, used as the baseline throughout the paper's evaluation.

    Implements per-cpu weighted fair queuing over a run-queue keyed by
    virtual runtime — a {!Ds.Pid_heap} of pids over struct-of-arrays
    entity state, picking exactly the task a (vruntime, pid)-ordered tree
    would (§4.2.1 of the paper describes the algorithm):

    - vruntime accrues as [delta_exec * NICE_0_LOAD / weight], with weights
      from the kernel's nice-to-weight table;
    - newly woken tasks get [max(vruntime, min_vruntime - sched_latency/2)]
      so sleepers do not hoard a vruntime debt;
    - a woken task with sufficiently smaller vruntime preempts the current
      task (wakeup preemption, [wakeup_granularity]);
    - tasks run for a slice of [period * weight / load], where the period
      stretches with the number of runnable tasks (min 6 ms);
    - wake placement prefers the previous cpu, then idle cpus sharing its
      LLC, then its NUMA node; periodic and newidle balancing pull from the
      busiest run-queue, crossing NUMA nodes only past an imbalance
      threshold.

    This class runs "in the kernel": it pays no Enoki dispatch overhead. *)

(** Tunables, defaulting to the Linux values the paper cites. *)
type params = {
  sched_latency : Time.ns;  (** target preemption period, 6 ms *)
  min_granularity : Time.ns;  (** minimum slice, 0.75 ms *)
  wakeup_granularity : Time.ns;  (** wakeup preemption threshold, 1 ms *)
  numa_imbalance_threshold : int;
      (** minimum waiting-task surplus before stealing across NUMA nodes *)
}

val default_params : params

(** CFS weight for a nice level in [-20, 19] (NICE_0 = 1024). *)
val weight_of_nice : int -> int

(** [debug_checks] verifies run-queue/tree consistency after every hook
    (slow; used by the test suite). *)
val factory : ?params:params -> ?debug_checks:bool -> unit -> Sched_class.factory
