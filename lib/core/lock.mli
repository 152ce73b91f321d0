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
    the calls back in log order against locks nobody observes, and the
    lock events stay in the log as the record of that interleaving.

    Scheduler modules must guard all shared state with these locks (as the
    paper's schedulers guard theirs with the kernel spinlock wrappers).

    Every lock belongs to an {!owner}: the loaded module instance that
    created it ({!Ctx.t.locks}).  The owner numbers its locks and holds
    the one observer its locks report to, so two machines in one domain,
    or a host that advances on a different domain each epoch, never see
    each other's lock events.  There is no ambient state.  An owner and
    its locks are used from one domain at a time, as the machine that
    holds them is. *)

type t

type op = Create | Acquire | Release

type event = { lock_id : int; op : op; tid : int }

(** Printable names ([create]/[acquire]/[release]) for replay context. *)
val op_name : op -> string

(** Record-log encoding ([Create]=0, [Acquire]=1, [Release]=2);
    {!op_of_byte} is the inverse used by the replay decoder. *)
val op_byte : op -> int

val op_of_byte : int -> op option

(** The locks of one loaded module instance: an id counter from 0 and an
    optional observer.  Enoki-C gives a module an observer only when the
    machine records or traces; it receives every [Create], [Acquire] and
    [Release] of the owner's locks. *)
type owner

val owner : (op -> lock_id:int -> unit) option -> owner

(** [create owner] allocates a lock.  Ids are assigned in creation order
    per owner, which is how a log's lock events name their locks (the
    paper assumes locks are created in the same order during replay); a
    live upgrade creates the new version's locks on the same owner, so
    its ids carry on from the old version's. *)
val create : owner -> t

(** [locked l f s a b c d] runs [f s a b c d] holding [l], between the
    owner's observer's [Acquire] and [Release] (also when [f] raises).
    The hot-path form for a module whose [f] is a closed (top-level)
    function of its state and up to four arguments; pad unused ones with
    [()].  It builds no closure and allocates nothing itself. *)
val locked :
  t -> ('s -> 'a -> 'b -> 'c -> 'd -> 'r) -> 's -> 'a -> 'b -> 'c -> 'd -> 'r

(** [with_lock l f] is [locked] over [f ()]: the same events, in the same
    order. *)
val with_lock : t -> (unit -> 'a) -> 'a

(** Does nothing.  Lock events reach a tracer through the owner's
    observer; this is kept only for the repo benchmark's set-up, which
    still calls it. *)
val set_trace_tap : (op -> lock_id:int -> unit) option -> unit

(** For the tests only. *)
module Private : sig
  val id : t -> int
end
