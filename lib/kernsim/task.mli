(** Simulated tasks and their behaviours.

    A task is the simulator's [task_struct]: identity, scheduling state and
    accounting, plus a {e behaviour} — a resumable program that yields the
    task's next action whenever the previous one completes.  Behaviours are
    closures carrying their own state, which is how the workload generators
    ({!Workloads}) express pipes, servers, fork-join phases and so on. *)

type ns = Time.ns

(** Messages crossing the user/kernel boundary (Enoki's custom scheduler
    hints, §3.3).  The variant is extensible: each scheduler defines its own
    hint constructors, mirroring the paper's scheduler-defined hint types. *)
type hint = ..

(** What a task does next, as an immediate int: a behaviour step
    allocates nothing for its answer.  Build one with the functions below.
    Instantaneous actions ({!wake}, {!send_hint}, {!spawn}) are processed
    in the task's kernel context and the behaviour is immediately asked for
    another action. *)
type action = private int

type ctx = {
  mutable now : ns;
  mutable self : int;  (** own pid *)
  mutable cpu : int;  (** cpu the task is currently on *)
  mutable inbox : hint list;  (** kernel-to-user messages since the last action *)
  mutable hint_out : hint option;  (** written by {!send_hint}, emptied by the machine *)
  mutable spawn_out : spec option;  (** written by {!spawn}, emptied by the machine *)
}
(** The fields are mutable because the machine reuses {e one} scratch
    [ctx] record for every behaviour step (the record would otherwise be
    a per-event allocation on the hottest path).  The value is only valid
    for the duration of the behaviour call: behaviours must read what
    they need immediately and never retain the record itself. *)

and behaviour = ctx -> action

and spec = {
  name : string;
  group : string;  (** accounting group, e.g. "batch" vs "rocksdb" *)
  nice : int;  (** -20 (highest) .. 19 (lowest) *)
  policy : int;  (** which scheduler class manages this task *)
  behaviour : behaviour;
  affinity : int list option;  (** allowed cpus; [None] = all *)
}

(** {2 Actions}

    An action packs its kind in the low 3 bits and its argument (ns or
    channel id) above them.  Every constructor taking an argument raises
    [Invalid_argument] when it does not fit in the remaining 60 signed
    bits. *)

(** run on the cpu for this much time; [compute d] with [d <= 0] is
    skipped and the behaviour asked again *)
val compute : ns -> action

(** wait on channel (semantics of a semaphore P) *)
val block : int -> action

(** signal channel (semaphore V), waking one waiter *)
val wake : int -> action

(** block for a fixed duration *)
val sleep : ns -> action

(** give up the cpu but stay runnable *)
val yield : action

(** [send_hint ctx h] pushes [h] to this task's scheduler.  The hint waits
    in [ctx.hint_out] until the machine takes it, before it runs any other
    behaviour, so return the action from the same step. *)
val send_hint : ctx -> hint -> action

(** [spawn ctx spec] creates a new task; [spec] travels in [ctx.spawn_out]
    as the hint does in {!send_hint}. *)
val spawn : ctx -> spec -> action

(** terminate *)
val exit : action

(** An action's kind, as the machine reads it back. *)
type kind = K_compute | K_block | K_wake | K_sleep | K_yield | K_send_hint | K_spawn | K_exit

val kind : action -> kind

(** the argument of a [compute], [block], [wake] or [sleep]; 0 otherwise *)
val arg : action -> int

(** A fresh context with empty payload slots. *)
val make_ctx : unit -> ctx

type state = Runnable | Running | Blocked | Dead

type t = {
  pid : int;
  name : string;
  group : string;
  mutable nice : int;
  mutable policy : int;
  behaviour : behaviour;
  mutable state : state;
  mutable cpu : int;  (** kernel run-queue assignment *)
  mutable affinity : int list option;
  mutable remaining : ns;  (** left of the current {!compute} *)
  mutable sum_exec : ns;  (** total cpu time consumed *)
  mutable last_wake : ns;
  mutable wake_pending : bool;  (** a wakeup latency sample is outstanding *)
  mutable migrations : int;  (** lifetime cross-cpu moves (includes affinity fixups) *)
  mutable inbox : hint list;  (** kernel-to-user hint mailbox (newest first) *)
  mutable pending_policy : int option;
      (** policy change to apply at the next deschedule *)
  mutable spawned_at : ns;
  mutable exited_at : ns option;
}

(** [default_spec ~name behaviour] fills in group = name, nice 0, policy 0,
    no affinity. *)
val default_spec : name:string -> behaviour -> spec

val make : spec -> pid:int -> now:ns -> t

val is_runnable : t -> bool

(** [allowed_cpu task cpu] respects [affinity]. *)
val allowed_cpu : t -> int -> bool

val pp_state : Format.formatter -> state -> unit

module Private : sig
  (** the argument range of an action, both ends included *)
  val max_arg : int

  val min_arg : int
end
