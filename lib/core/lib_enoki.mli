(** The libEnoki processing function.

    It parses each per-function message, calls the corresponding scheduler
    function, and writes the return value back into a reply (§3.1).
    Replay drives it with the messages decoded from a record log; in a
    live run Enoki-C makes the same calls directly, so the identical
    scheduler code runs in the kernel and at userspace. *)

val process : Sched_trait.packed -> Message.call -> Message.reply
