(** The [Schedulable] capability (§3.1 of the paper).

    A Schedulable represents a task together with the core it may safely be
    scheduled on.  The framework mints one at every task state transition
    (new, wakeup, preempt, yield, migrate) and hands {e ownership} to the
    scheduler; the scheduler returns it from [pick_next_task] as proof that
    running the task on that core is safe.

    A token is an immediate int, so minting, storing and returning one
    allocates nothing.  It packs three fields:
    - cpu in 12 bits (0..4095),
    - pid in 20 bits (0..1048575),
    - generation in 30 bits (0..1073741823).

    Rust enforces the ownership discipline at compile time (the type is
    neither [Copy] nor [Clone]).  OCaml has no affine types, and an int can
    be copied, so Enoki-C enforces the same protocol against its own
    per-pid table: it records which generation is current and which was
    last returned.  A token returned twice ([consumed]), returned on the
    wrong core ([wrong_cpu]), or superseded by a newer state transition
    ([stale_generation]) fails validation and is routed back through
    [pnt_err], exactly the recoverable-error path the paper describes.
    DESIGN.md discusses the substitution. *)

type t [@@immediate]

(** No token: what [pick_next_task] returns when it has nothing to run,
    and what [task_departed]/[migrate_task_rq] return when the module held
    nothing.  Its {!pid}, {!cpu} and {!generation} are all [-1]. *)
val none : t

val is_none : t -> bool

val pid : t -> int

(** The core this token licenses the task to run on. *)
val cpu : t -> int

(** Generation stamp; a newer token for the same pid supersedes this one. *)
val generation : t -> int

(** Framework-internal operations.  Scheduler modules must not call these;
    doing so is the moral equivalent of [unsafe] in the paper's Rust. *)
module Private : sig
  (** Field limits: the largest pid, cpu and generation a token holds. *)

  val max_pid : int

  val max_cpu : int

  val max_generation : int

  (** [sched(pid=P cpu=C gen=G)], or [sched(none)]. *)
  val describe : t -> string

  (** Pack a token.  Raises [Invalid_argument] naming the field when a pid,
      cpu or generation is negative or above its limit, so an out-of-range
      value is rejected and never aliases another token. *)
  val create : pid:int -> cpu:int -> gen:int -> t

  (** The generation after [g], as Enoki-C's per-pid counter counts.  A
      generation overflows its 30 bits after [max_generation] transitions
      of one pid: the counter wraps from [max_generation] back to 1 (0
      stays "no token minted"), so a token superseded exactly
      [max_generation] transitions earlier would validate again. *)
  val next_generation : int -> int
end
