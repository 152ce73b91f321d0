(** The Enoki Shinjuku scheduler (§4.2.2).

    Approximates Shinjuku's centralized first-come-first-serve queue with
    fast preemption on top of the kernel's multiple run-queues: all waiting
    tasks sit in one global FCFS queue; when a cpu needs work it takes the
    head (migrating it to its own run-queue via [balance] if needed); a
    reschedule timer is armed on {e every} operation so any task that has
    run for the preemption slice is placed back at the tail.  The paper
    uses a 10 us slice (instead of Shinjuku's 5 us) to avoid overloading
    the scheduler; long range-queries therefore cannot starve short GETs,
    which is the whole point of Figure 2.

    Ablations with another slice build a variant module whose [create] is
    {!make}. *)

include Enoki.Sched_trait.S

(** Default preemption slice (10 us, as in §4.2.2). *)
val default_slice : Kernsim.Time.ns

(** [make ctx ~slice] is [create ctx] with a [slice] preemption timer in
    place of {!default_slice}. *)
val make : Enoki.Ctx.t -> slice:Kernsim.Time.ns -> t
