(** Machine assembly for the benchmark matrix.

    Builds a simulated machine with the scheduler configuration under test.
    Enoki and ghOSt configurations stack their class above native CFS, so
    tasks outside the tested policy (batch apps, background work) fall
    through to CFS exactly as in the paper's co-location experiments.
    What varies between builds is the scheduler [kind] and the optional
    observers and costs of {!build}; the event queue ({!Kernsim.Sim}) and
    Enoki-C's panic boundary are the same in every machine. *)

type kind =
  | Cfs  (** native CFS only *)
  | Enoki_sched of (module Enoki.Sched_trait.S)  (** an Enoki scheduler over CFS *)
  | Ghost of Schedulers.Ghost_sim.policy  (** a ghOSt policy over CFS *)

(** The machine configuration for a scheduler-registry entry. *)
val of_registry : Schedulers.Registry.entry -> kind

(** [workload_seed ?seed name] is the PRNG seed for the generator called
    [name].  With [seed = None] it returns the generator's canonical
    default (schbench 42, rocksdb 7, memcached 11, otherwise 1), keeping
    historical baselines byte-identical.  With [Some root] it mixes [root]
    with a stable hash of [name], so one root seed fans out into an
    independent, reproducible stream per generator — the single splitter
    every workload (and the cluster tier) threads its seeds through. *)
val workload_seed : ?seed:int -> string -> int

type built = {
  machine : Kernsim.Machine.t;
  policy : int;  (** policy id for tasks of the scheduler under test *)
  cfs_policy : int;  (** policy id for co-located CFS tasks *)
  enoki : Enoki.Enoki_c.t option;  (** present for [Enoki_sched] (upgrade, stats) *)
  agent_core : int option;
      (** core occupied by a spinning userspace scheduling agent (ghOSt
          global policies); workloads spawn the spinner so the core is
          really consumed *)
  registry : Metrics.Registry.t option;
      (** the metrics registry handed to [build], so workloads can record
          request latencies into it *)
}

(** Register ring emit/drop/buffered gauge probes for [tracer] in [reg],
    optionally under a {!Metrics.Registry.labeled} block (the fleet labels
    its chaos victim's tracer by host).  [build] calls this automatically
    when given both a registry and a tracer. *)
val register_tracer_probes :
  ?labels:(string * string) list -> Metrics.Registry.t -> Trace.Tracer.t -> unit

(** [tracer] attaches a schedtrace sink to both the machine and (for
    [Enoki_sched]) the Enoki-C layer; building a machine always resets the
    process-global lock trace tap first, so at most one machine traces lock
    events at a time.  [registry] threads a metrics registry through the
    machine and the Enoki-C boundary (and, when a tracer is also given,
    registers ring drop/emit probes); [profile] arms the Enoki-C
    self-profiler. *)
val build :
  ?costs:Kernsim.Costs.t ->
  ?record:Enoki.Record.t ->
  ?tracer:Trace.Tracer.t ->
  ?registry:Metrics.Registry.t ->
  ?profile:Profile.t ->
  ?call_budget:Kernsim.Time.ns ->
  topology:Kernsim.Topology.t ->
  kind ->
  built

(** An observation function for workload request latencies: records into
    the built machine's registry histogram
    ([workload_request_latency_ns]) when a registry is attached, and is a
    no-op otherwise. *)
val request_observer : built -> int -> unit

(** Short label for tables ("cfs", "enoki:wfq", "ghost-sol", ...). *)
val label : kind -> string

(** Key/value lines summarising the Enoki-C layer of a built machine —
    calls, violation breakdown, panic/failover counters, upgrade stats —
    for report output; empty for non-Enoki configurations. *)
val enoki_summary : built -> (string * string) list
