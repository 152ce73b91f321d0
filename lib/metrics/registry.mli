(** The always-on scheduler metrics registry.

    Everything the machine, the Enoki-C boundary, the trace layer and the
    workload generators count or time flows through one of three metric
    shapes:

    - {b counters}: monotonically increasing integers, sharded per cpu so
      hot paths touch only their own slot (context switches, migrations,
      boundary crossings, panics);
    - {b gauges}: point-in-time floats computed by a probe at read time
      (runqueue depth, tracer ring drops);
    - {b histograms}: per-cpu-sharded log-linear latency histograms
      (reusing {!Stats.Histogram}) merged at read time (wakeup latency,
      per-callback latency, request latency).

    Recording never allocates after metric creation and never touches
    simulated time — observability must not perturb scheduling decisions
    (the zero-perturbation contract tested in [test_metrics.ml]).

    Domain-safety contract: registration ({!counter}, {!histogram}, …)
    mutates the registry's table and must stay in one domain (build time).
    After registration, recording into {e distinct} metrics — or distinct
    [cpu] shards of one metric — from different domains is safe as long as
    each series has a single writer at a time and readers ({!merged}, the
    exporters) run after a synchronization point.  This is how the fleet
    tier shares one registry across `-j` domains: each host owns its own
    labelled series during an epoch, multi-writer series are buffered
    per host and applied in fixed host order at the epoch barrier, and all
    reads happen on the coordinating domain after the barrier. *)

type t

type counter

type histogram

val create : ?nr_cpus:int -> unit -> t

(** Get-or-create by name.  Re-registering an existing name returns the
    existing metric; a name registered under a different shape raises
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

val counter : t -> ?help:string -> string -> counter

(** A gauge evaluated on demand: the probe runs at sample/export time.
    Registering a probe again under its name replaces the probe. *)
val gauge_probe : t -> ?help:string -> string -> (unit -> float) -> unit

val histogram : t -> ?help:string -> string -> histogram

(** Recording. [cpu] out of range is folded onto shard 0, mirroring the
    tracer's discipline.  [cpu] is a required label so that a hot-path
    record never boxes it into an option. *)

val incr : counter -> cpu:int -> unit

val observe : histogram -> cpu:int -> int -> unit

(** Reading. *)

(** Merge the per-cpu shards into a fresh histogram (the shards are
    untouched). *)
val merged : histogram -> Stats.Histogram.t

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
