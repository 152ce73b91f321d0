(** An earliest-deadline-first scheduler (extension).

    Linux ships a deadline scheduler as one of its three mainline classes
    (§2); this is its Enoki rendering, driven by userspace hints: a task
    declares its relative deadline with {!Hints.Deadline}, and on every
    wakeup it is queued with an absolute deadline of [now + relative].
    Tasks without a hint get {!default_relative_deadline}.

    Scheduling is a single global EDF queue with Shinjuku-style migration
    through [balance], plus tick-driven preemption when an earlier deadline
    is waiting.  Missed-deadline accounting is exposed for tests and the
    ablation bench. *)

include Enoki.Sched_trait.S

(** For the tests only. *)
module Private : sig
  (** The relative deadline currently registered for a task, if hinted. *)
  val relative_deadline_of : t -> pid:int -> Kernsim.Time.ns option
end
