(** Periodic time-series sampler, driven by simulated time.

    Every [interval] simulated nanoseconds the sampler snapshots each
    registry metric into a row of the time series (histograms snapshot
    count/p50/p99) and runs its flush hooks — the machine wiring uses a
    hook to emit a [Metric_flush] trace event.  Sampling only {e reads}
    machine state, never charges time or reschedules a cpu, so an armed
    sampler cannot perturb scheduling decisions. *)

type sample = { ts : int; values : (string * float) list }

type t

val create : ?interval:int -> Registry.t -> t

(** Default interval when [create] is not given one: 10 ms. *)
val default_interval : int


(** Run [f ~ts] at every sampler tick, after the snapshot is taken. *)
val on_flush : t -> (ts:int -> unit) -> unit

(** Arm the periodic tick on a simulator clock: [now] reads the clock,
    [defer] schedules a thunk.  ( {!Kernsim.Machine.at} and
    [Kernsim.Machine.now] have exactly these shapes.) *)
val start : t -> now:(unit -> int) -> defer:(delay:int -> (unit -> unit) -> unit) -> unit

(** Take one snapshot immediately (also used as the final flush at the
    end of a run). *)
val flush : t -> ts:int -> unit

(** Snapshots taken so far, oldest first. *)
val samples : t -> sample list

val ticks : t -> int
