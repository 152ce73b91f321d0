(** The online scheduling-invariant sanitizer.

    Subscribes to a {!Tracer} and re-derives the authoritative scheduling
    state (who is running where, who is runnable since when, which locks
    are held) from the event stream alone, checking on every event:

    - {b double_run}: no pid is dispatched on two cpus at once — the
      property the Schedulable capability makes unrepresentable for
      well-typed schedulers, re-checked here dynamically;
    - {b starvation}: no runnable task waits longer than
      [config.starvation_bound] without being dispatched;
    - {b work_conservation}: no cpu stays idle past [config.wc_grace]
      while a task it is allowed to run has been runnable that long;
    - {b token_discipline}: every [pnt_err] (consumed / wrong-cpu / stale
      Schedulable use) is surfaced as a violation;
    - {b lock_imbalance}: lock releases pair LIFO with acquires per
      logical kernel thread.

    Each violation captures the trailing [config.window] events as context,
    the record/replay philosophy of §3.4 applied online.  The sanitizer
    subscribes at emission time, so it observes events even when the
    tracer's bounded rings overrun. *)

type violation_kind =
  | Double_run
  | Starvation
  | Work_conservation
  | Token_discipline
  | Lock_imbalance

type violation = {
  at : int;  (** simulated time of detection *)
  cpu : int;  (** cpu involved, [-1] for global checks *)
  vkind : violation_kind;
  detail : string;
  window : Event.t list;  (** trailing events leading up to the violation *)
}

type config = {
  starvation_bound : int;  (** ns a task may stay runnable undispatched *)
  wc_grace : int;  (** ns a cpu may idle while eligible work waits *)
  window : int;  (** trailing events kept as violation context *)
  disabled : violation_kind list;
      (** invariant classes the scheduler under test renounces by design
          (e.g. a core arbiter like Arachne is neither work-conserving nor
          starvation-free for parked activations) *)
}

(** 100ms starvation bound, 5ms work-conservation grace, 32-event window,
    every invariant class enabled. *)
val default_config : config

type t

val create : ?config:config -> nr_cpus:int -> unit -> t

(** Subscribe [t] to every event [tracer] emits, in packed form: checking
    allocates only its per-task hash-table entries and what a violation
    records.  Raises [Invalid_argument "Sanitizer.attach: ..."] when the
    tracer has more cpus than [t], whose per-cpu state could not hold
    their events. *)
val attach : t -> Tracer.t -> unit

(** All violations, oldest first. *)
val violations : t -> violation list

(** [List.length (violations_of_kind t k)], in constant time. *)
val count_of_kind : t -> violation_kind -> int

val ok : t -> bool

val events_seen : t -> int

val report_string : t -> string

(** For the tests only. *)
module Private : sig
  val kind_name : violation_kind -> string

  (** Feed one event (timestamp order assumed): its packed form goes
      through the same checker {!attach} subscribes. *)
  val feed : t -> Event.t -> unit

  (** The pid the sanitizer holds dispatched on [cpu], [-1] for none. *)
  val current : t -> cpu:int -> int
end
