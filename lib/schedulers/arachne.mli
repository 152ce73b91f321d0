(** The Enoki re-implementation of the Arachne core arbiter (§4.2.4).

    Arachne is a two-level scheduler: applications request cores and manage
    their own user-level threads on whatever cores they are granted.  The
    paper replaces the original userspace arbiter (cpusets + sockets +
    shared memory) with an Enoki kernel scheduler that uses the
    bidirectional hint queues: {!Hints.Core_request} flows user-to-kernel,
    {!Hints.Core_grant} / {!Hints.Core_reclaim} flow kernel-to-user.

    The arbiter manages a contiguous range of cores (leaving core 0 for
    background work, as the paper's memcached setup reserves a core).  Each
    granted core runs exactly one scheduler activation; unassigned
    activations are not picked, and reclaimed activations park themselves
    when the runtime relays the reclaim. *)

include Enoki.Sched_trait.S
