(** The recovery watchdog.

    Consumes the schedtrace stream and decides when the registered
    scheduler module is beyond local recovery: a burst of module panics,
    repeated per-call budget overruns (the wedged-module signature), or
    fresh starvation findings from an attached {!Trace.Sanitizer}.  When
    a trigger trips it emits a [Watchdog_fire] event and invokes the
    [action] callback — typically {!Enoki.Enoki_c.restore}, which defers
    to a safe point and rolls back to the last-known-good scheduler
    version.

    The callback runs synchronously from inside trace emission, which may
    be the middle of a dispatch; recovery actions that re-enter the
    scheduler (rollback, upgrade) must be deferred to a safe point, e.g.
    [Kernsim.Machine.at ~delay:0].

    Attach the sanitizer to the tracer {e before} the watchdog so its
    verdicts are current when the watchdog polls them on each tick. *)

type ns = int

type config = {
  panic_burst : int;  (** fire at this many panics within [window] *)
  overrun_burst : int;  (** fire at this many budget overruns within [window] *)
  window : ns;
  starvation : bool;  (** fire on new sanitizer starvation violations *)
  cooldown : ns;  (** minimum spacing between fires *)
  max_fires : int;
}

(** 3 panics / 3 overruns per 100 ms window, starvation armed, 50 ms
    cooldown, at most 8 fires. *)
val default_config : config

type fire = { at : ns; reason : string }

type t

val create :
  ?config:config ->
  ?sanitizer:Trace.Sanitizer.t ->
  action:(reason:string -> at:ns -> unit) ->
  unit ->
  t

(** Subscribe to every event [tracer] emits; the watchdog also emits its
    [Watchdog_fire] marker back into this tracer. *)
val attach : t -> Trace.Tracer.t -> unit

(** Fires so far, oldest first. *)
val fires : t -> fire list
