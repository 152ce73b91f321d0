(** The locality-aware scheduler (§4.2.3).

    Co-locates tasks that communicate heavily: the application sends a
    {!Hints.Locality} hint naming a task and a locality value, and every
    task sharing that value is placed on the same core.  Unlike pinning
    with cpusets, the hint names only the {e co-location}, not the core —
    the scheduler picks the core, spreads distinct groups across cores, and
    ignores the hint when a core already has too many tasks.  Tasks without
    hints get random placement, which is the paper's no-hints baseline in
    Table 6. *)

include Enoki.Sched_trait.S
