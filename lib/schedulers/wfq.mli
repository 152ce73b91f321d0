(** The Enoki weighted-fair-queuing scheduler (§4.2.1).

    Computes CFS-style vruntime for per-core time slices but uses a much
    simpler placement policy: a waking task goes back to its previous core
    unless that core has queued work; a core about to become idle steals
    waiting work from the core with the longest queue; there is no other
    rebalancing.  The paper's version is 646 lines of Rust against CFS's
    6247 of C and lands within 0.74% of CFS geomean across 36 application
    benchmarks — the property Table 5 checks.

    Slice preemption is tick-driven: a task is preempted once it has run
    for its weighted share of the latency period, or when a shorter-
    vruntime task is waiting (as the paper describes, preemption happens
    when a system timer ticks). *)

include Enoki.Sched_trait.S

(** For the tests only. *)
module Private : sig
  (** Waiting tasks queued on one cpu (tests observe stealing through it). *)
  val queue_length : t -> cpu:int -> int

  (** Current vruntime of a task, if known. *)
  val vruntime_of : t -> pid:int -> int option
end
