(** Calibrated cost constants for the simulated machine.

    These are the knobs that stand in for the real hardware the paper ran
    on (an 8-core i7-9700 and an 80-core Xeon box).  The defaults are tuned
    so the baseline shapes land where the paper's Table 3 puts them:
    ~3.0-3.6 us per sched-pipe wakeup under CFS, with Enoki adding
    100-150 ns per scheduler invocation (4 invocations per schedule
    operation) and ghOSt paying for userspace agent dispatch. *)

type t = {
  context_switch : Time.ns;  (** direct cost of switching the running task *)
  wakeup_path : Time.ns;  (** kernel wakeup bookkeeping, charged to the waker *)
  syscall : Time.ns;  (** per pipe read/write style syscall, in workload models *)
  ipi_latency : Time.ns;  (** cross-cpu reschedule interrupt delivery *)
  idle_exit : Time.ns;
      (** waking a core out of shallow idle (C1-style exit + cold caches) *)
  deep_idle_exit : Time.ns;
      (** waking a core that has idled past [deep_idle_after] (C6-style) *)
  deep_idle_after : Time.ns;  (** idle residency before the deep state is entered *)
  migration : Time.ns;  (** cache penalty charged when a task changes cpus *)
  tick_period : Time.ns;  (** periodic scheduler tick (1 kHz) *)
  timer_arm : Time.ns;  (** arming a one-shot hrtimer from scheduler context *)
  enoki_call : Time.ns;
      (** Enoki framework overhead per scheduler invocation; the paper
          measures 100-150 ns (§5.2) *)
  ghost_agent_local : Time.ns;
      (** per-CPU ghOSt agent: decision turnaround when the agent must be
          scheduled and run on the same core *)
  ghost_agent_burn : Time.ns;
      (** cpu time the per-CPU agent consumes on the core per decision *)
  ghost_agent_remote : Time.ns;
      (** global (SOL-style) agent: decision turnaround on a dedicated core *)
  ghost_msg : Time.ns;  (** enqueueing a message to the ghOSt agent *)
  record_msg : Time.ns;  (** record tap: encode + ring push per message *)
  upgrade_base : Time.ns;  (** live upgrade: fixed quiesce/swap cost *)
  upgrade_per_cpu : Time.ns;  (** live upgrade: per-cpu run-queue quiesce *)
  upgrade_per_task : Time.ns;  (** live upgrade: state transfer per task *)
  failover : Time.ns;
      (** per-cpu pause charged when Enoki-C quarantines a panicked module
          and fails over to the built-in fallback class *)
}

val default : t
