(** A Nest-style warm-core scheduler (extension).

    The paper's motivation (§2) cites Nest [Lawall et al., EuroSys '22]:
    for jobs with fewer tasks than cores, energy efficiency and even
    latency improve by reusing a small set of {e warm} cores instead of
    spreading tasks across many cold ones — a cold core pays a deep
    idle-state exit on every wakeup and ramps its frequency from scratch.

    This scheduler demonstrates that the policy fits naturally in Enoki's
    trait: it keeps a compact primary nest of cores, places wakeups onto
    nest cores while they have capacity, expands the nest only under
    sustained pressure, and lets unused cores fall out of the nest after
    an idle period.  The [ablation] bench compares it against CFS on a
    sparse periodic workload: similar latency, far fewer cores touched. *)

include Enoki.Sched_trait.S

(** For the tests only. *)
module Private : sig
  (** Cores currently in the primary nest. *)
  val nest_cpus : t -> int list
end
