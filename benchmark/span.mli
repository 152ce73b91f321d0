(** Outside-in spans around layer entry points.

    The benchmark times each layer of the simulator from outside, by
    wrapping the functions through which control enters it (a scheduler
    class hook, a scheduler-module callback) in a span.  A timed span
    records its duration and the minor-heap words allocated while it was
    open; a layer's {e self} figures are its spans' totals minus the spans
    opened inside them.

    Reading the clock costs more than many hooks do, so after the first
    10 000 spans only one outermost span in 64 is timed, chosen by a
    pseudo-random draw, together with every span nested in it.  Every
    span is counted; timed totals are scaled up by the inverse of the
    probability they were timed with, and the cost of the instrumentation
    itself is measured by {!calibrate} and removed.

    Every domain keeps its own span stack and accumulators (a fleet's
    hosts advance on several domains at once); {!totals} sums them.  The
    first 10 000 spans are kept with their parent ids and can be written
    as a Chrome trace.  Opening and closing a span does not allocate. *)

type layer

(** [layer family hook] names a layer entry point, e.g.
    [layer "enoki_c" "pick_next_task"].  Registering the same pair twice
    returns the same layer. *)
val layer : string -> string -> layer

val family : layer -> string

(** Every registered layer, in registration order. *)
val layers : unit -> layer list

(** Open a span of [layer] on the calling domain. *)
val enter : layer -> unit

(** Close the innermost span of the calling domain, which must belong to
    [layer]. *)
val leave : layer -> unit

(** [root layer f] runs [f] under a span that only appears in the span
    sample: spans opened with an empty stack during [f], on any domain,
    name it as their parent.  It is neither timed nor counted (the fleet
    times its epoch steps itself). *)
val root : layer -> (unit -> 'a) -> 'a

(** [with_every k f] runs [f] timing one outermost span in [k] instead of
    64; [k = 1] times every span, which makes the word counts exact. *)
val with_every : int -> (unit -> 'a) -> 'a

(** Host monotonic clock, ns. *)
val now_ns : unit -> int

(** Minor-heap words allocated so far by the calling domain. *)
val minor_words : unit -> int

(** Sums over every domain.  [calls] counts every span; the other fields
    cover timed spans only, each weighted by the inverse of the
    probability it was timed with, so they estimate totals over all
    calls. *)
type totals = {
  calls : int;
  timed : int;  (** spans timed, unweighted *)
  wcalls : int;  (** spans timed, weighted *)
  incl_ns : int;  (** durations *)
  self_ns : int;  (** durations minus those of direct child spans *)
  children : int;  (** direct child spans *)
  incl_words : int;
  self_words : int;
}

val totals : layer -> totals

val add : totals -> totals -> totals

val zero : totals

(** Zero every accumulator and the span sample.  Call only while no span
    is open. *)
val reset : unit -> unit

(** Cost of an empty span: [inside] is what a timed span's own duration
    includes of it, [total] the whole enter/leave pair of a timed span,
    [untimed] that of a span only counted. *)
type calibration = {
  inside_ns : float;
  total_ns : float;
  untimed_ns : float;
  inside_words : float;
  total_words : float;
}

(** [calibrate ~bare ~wrapped ~probe]: the median over rounds of a million
    calls of [bare], an empty function, against [wrapped], the same
    function behind a span wrapper of layer [probe], with every span timed
    and with none.  Resets the accumulators. *)
val calibrate : bare:(unit -> unit) -> wrapped:(unit -> unit) -> probe:layer -> calibration

(** Self time and self words of a layer with the instrumentation removed:
    each timed span loses [inside], and each direct child its wrapper cost
    outside its own window ([total - inside]). *)
val self_ns : calibration -> totals -> float

val self_words : calibration -> totals -> float

(** [outside_ns cal ~run_ns] is the host time a wrapped run of [run_ns]
    spent outside every span, with the instrumentation removed: [run_ns]
    minus the estimated true cost of the outermost spans and minus what
    every span's enter/leave pair cost. *)
val outside_ns : calibration -> run_ns:int -> float

(** The same for minor-heap words allocated outside every span. *)
val outside_words : calibration -> run_words:int -> float

(** Spans kept so far (at most 10 000). *)
val sample_size : unit -> int

(** The sample as a Chrome trace-event document: one complete event per
    span, with its id and its parent's id in [args]. *)
val sample_chrome_json : unit -> string
