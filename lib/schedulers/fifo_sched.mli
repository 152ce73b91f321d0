(** The paper's §3.1 worked example: per-core first-come-first-serve
    queues.

    Tasks are assigned to the core with the shortest queue; each core runs
    its queue in arrival order; an idle core steals waiting work from the
    longest queue through [balance].  Small on purpose — this is the
    scheduler the quickstart example builds. *)

include Enoki.Sched_trait.S
