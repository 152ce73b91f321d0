(** The always-on scheduler metrics registry.

    A read-out of the state the machine, the Enoki-C boundary, the trace
    layer and the workload generators already keep, in three metric
    shapes:

    - {b counters}: monotonically increasing integers, read at export
      time from their owner's own count (context switches, migrations,
      boundary crossings, panics);
    - {b gauges}: point-in-time floats computed by a probe at read time
      (runqueue depth, tracer ring drops);
    - {b histograms}: log-linear latency histograms ({!Stats.Histogram}),
      the one state the registry itself holds (wakeup latency,
      per-callback latency, request latency).

    Recording never allocates after metric creation and never touches
    simulated time — observability must not perturb scheduling decisions
    (the zero-perturbation contract tested in [test_metrics.ml]).

    Domain-safety contract: one writer per metric.  Registration
    ({!counter}, {!histogram}, …) mutates the registry's table and stays
    in one domain (build time).  After registration each histogram, and
    the state each reader reads, has a single writer at a time; readers
    ({!iter}, the exporters) run after a synchronization point.  This is
    how the fleet tier shares one registry across `-j` domains: each host
    owns its own labelled series during an epoch, multi-writer series are
    buffered per host and applied in fixed host order at the epoch
    barrier, and all reads happen on the coordinating domain after the
    barrier. *)

type t

(** Recording into a histogram is {!Stats.Histogram.record}; readers get
    the histogram itself and must not write to it. *)
type histogram = Stats.Histogram.t

(** [nr_cpus] is ignored: nothing in the registry is sized per cpu. *)
val create : ?nr_cpus:int -> unit -> t

(** Registration is by name.  Re-registering a histogram returns the
    existing one, re-registering a counter or gauge replaces its reader,
    and a name registered under a different shape raises
    [Invalid_argument]. *)

(** [labeled name labels] decorates a metric name with a Prometheus-style
    label block: [labeled "fleet_latency_ns" [("tenant", "web")]] is
    ["fleet_latency_ns{tenant=\"web\"}"].  The registry treats the result
    as an ordinary name (one independent series per label combination);
    the exporters split the block back out, so labelled series survive the
    text exposition format intact.  The cluster tier keys its per-tenant
    and per-host series this way.  [labeled name []] is [name]. *)
val labeled : string -> (string * string) list -> string

(** The name with any label block stripped: [base_name (labeled n ls) = n]. *)
val base_name : string -> string

(** A counter read from its owner's own count at sample/export time. *)
val counter : t -> ?help:string -> string -> (unit -> int) -> unit

(** A gauge evaluated on demand: the probe runs at sample/export time. *)
val gauge_probe : t -> ?help:string -> string -> (unit -> float) -> unit

val histogram : t -> ?help:string -> string -> histogram

val observe : histogram -> int -> unit

(** Reading. *)

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of Stats.Histogram.t

(** Iterate name/help/current value in registration order. *)
val iter : t -> (name:string -> help:string -> value -> unit) -> unit

val find_histogram : t -> string -> histogram option

module Private : sig
  (** Inverse of {!labeled}: [split (labeled n ls) = (n, ls)], unescaping the
      label values.  A name without a block splits to [(name, [])]; a
      malformed block degrades to the stripped base name with no labels
      rather than raising.  Exporters use this for label parity across the
      Prometheus, CSV and JSON paths. *)
  val split : string -> string * (string * string) list
end
