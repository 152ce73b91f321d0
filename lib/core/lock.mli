(** Recordable locks for scheduler modules (§3.4).

    Enoki's record/replay hinges on one observation: because schedulers are
    safe Rust (here: OCaml), the only nondeterminism left is timing (which
    the kernel supplies in messages, so it is recorded) and the order of
    lock acquisitions.  LibEnoki therefore shims the kernel lock API to log
    create/acquire/release events.  The paper replays on one OS thread per
    kernel thread, each lock admitting threads in the recorded order,
    because real kernel calls overlap.  The simulator makes every call on
    one thread, one at a time, so the record log is already one total
    order that agrees with every lock's acquisition order: {!Replay} feeds
    the calls back in log order under [Passthrough], and the lock events
    stay in the log as the record of that interleaving.

    Scheduler modules must guard all shared state with these locks (as the
    paper's schedulers guard theirs with the kernel spinlock wrappers).

    Modes are domain-local: the simulator and the replay run in
    [Passthrough], a recorded run in [Record].  Each domain has its own
    mode, trace tap, and lock-id sequence, so the bench harness can run
    independent machines in parallel domains. *)

type t

type op = Create | Acquire | Release

type event = { lock_id : int; op : op; tid : int }

(** Printable names ([create]/[acquire]/[release]) for replay context. *)
val op_name : op -> string

(** Record-log encoding ([Create]=0, [Acquire]=1, [Release]=2);
    {!op_of_byte} is the inverse used by the replay decoder. *)
val op_byte : op -> int

val op_of_byte : int -> op option

(** [create ()] allocates a lock.  Ids are assigned in creation order,
    which is how a log's lock events name their locks (the paper assumes
    locks are created in the same order during replay). *)
val create : unit -> t

(** [with_lock l f] runs [f] holding [l].
    - Passthrough: runs [f] directly (the simulator is single-threaded).
    - Record: logs acquire/release events around [f]. *)
val with_lock : t -> (unit -> 'a) -> 'a

(** [locked l f s a b c d] is [with_lock l (fun () -> f s a b c d)] without
    the closure: the hot-path form for a module whose [f] is a closed
    (top-level) function of its state and up to four arguments; pad unused
    ones with [()].  In Passthrough it calls [f] directly, between the
    trace tap's [Acquire] and [Release] when one is set, and allocates
    nothing itself; in Record it is exactly [with_lock], so record logs
    and tapped lock events are identical. *)
val locked :
  t -> ('s -> 'a -> 'b -> 'c -> 'd -> 'r) -> 's -> 'a -> 'b -> 'c -> 'd -> 'r

(** Reset the id counter (call before constructing the scheduler whose lock
    history you are about to record or replay). *)
val reset_ids : unit -> unit

(** Enter record mode: [sink] receives every lock event; [tid] supplies the
    logical kernel-thread id of the current context. *)
val set_record_mode : sink:(event -> unit) -> tid:(unit -> int) -> unit

val set_passthrough_mode : unit -> unit

(** The domain-local lock state (mode, trace tap, id counter) as a
    first-class value.

    Domain-safety contract: a given lock must be used from one domain at a
    time.  The {e ambient} state ({!set_record_mode}, the tap, the
    id counter) is domain-local, which is right when one domain owns one
    machine for its whole life (the bench pool) but wrong when a machine
    may advance on a different domain each step: the fleet tier captures a
    context per host at build time and installs it around every machine
    advance, so a host's lock identity travels with the host, not with the
    domain.  Ids then count per host — deterministic for any [-j]. *)
type ctx

(** A pristine context: Passthrough, no tap, ids from 0.  Install one
    before building a machine so the build can't inherit the ambient
    mode/tap of a previously built machine in the same domain. *)
val fresh_ctx : unit -> ctx

(** Snapshot the calling domain's current lock state.  The id counter is
    aliased, not copied: lock creations that happen while a captured
    context is installed persist into later installs of the same
    context. *)
val capture_ctx : unit -> ctx

(** [recapture_ctx held] is [capture_ctx ()], except that it returns
    [held] itself, allocating nothing, when each of the calling domain's
    lock fields is physically equal to [held]'s. *)
val recapture_ctx : ctx -> ctx

(** Make [ctx] the calling domain's lock state.  Callers are expected to
    capture the previous context first and restore it after — see
    [Cluster.Fleet]'s host advance for the pattern. *)
val install_ctx : ctx -> unit

(** Tracing tap, orthogonal to the mode: when set, every {!with_lock}
    reports [Acquire] before running the body and [Release] after (and
    {!create} reports [Create]), in both modes.  The
    schedtrace subsystem uses this to emit lock events the sanitizer
    checks for pairing; [None] (the default) restores the zero-cost path. *)
val set_trace_tap : (op -> lock_id:int -> unit) option -> unit

(** For the tests only. *)
module Private : sig
  val id : t -> int
end
