(** A fixed-priority real-time scheduler (extension).

    The Enoki rendering of Linux's SCHED_FIFO class (one of the three
    mainline schedulers §2 counts): strictly preemptive fixed priorities
    with FIFO order within a priority level and no time slicing.  The
    task's nice value doubles as its priority (lower = more urgent,
    matching the kernel's convention for this simulator).

    Being strict, it can and will starve low-priority work under overload —
    the test suite asserts that, since it is the defining behaviour. *)

include Enoki.Sched_trait.S
