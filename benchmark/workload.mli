(** The four benchmark workloads.

    Each is deterministic given its seed: the same seed dispatches the
    same simulated events and yields the same {!outcome.digest}, whatever
    the hooks, span wrappers or pool size. *)

type t = Pipe_cfs | Pipe_wfq | Schbench80 | Fleet8x8

val all : t list

val name : t -> string

val of_name : string -> t option

(** One line: why the workload is in the benchmark. *)
val why : t -> string

(** Observability hooks of a machine run; [schbench80-observed] runs with
    all of them, the other machine workloads with none. *)
type hooks = {
  tracer : bool;  (** tracer rings plus the online sanitizer *)
  metrics : bool;  (** metrics registry, rendered as Prometheus text *)
  profile : bool;  (** the Enoki-C boundary profiler *)
}

val no_hooks : hooks

(** The hooks the workload's end-to-end runs use. *)
val default_hooks : t -> hooks

type outcome = {
  events : int;  (** simulator events dispatched *)
  wall_ns : int;  (** host time of the timed region *)
  run_ns : int;  (** the part of [wall_ns] spent advancing the simulation, before any export *)
  run_words : int;  (** minor-heap words the calling domain allocated in [run_ns] *)
  sim : (string * float) list;  (** simulated results, exact for a seed *)
  digest : string;  (** hex digest of every simulated output *)
  artefacts : string;  (** hex digest of the trace and metric exports, [""] without hooks *)
  host : (string * float) list;
      (** host-side detail, named like the per-layer metrics it feeds:
          trace drain and export time, trace events and drops, sanitizer
          and Enoki-C violations, profiled simulated ns, fleet step
          quantiles, anatomy phase means *)
  problems : string list;  (** failed output checks; empty when the run is correct *)
}

(** [prepare ~quick ~seed w] builds the workload's machine or fleet and
    spawns its tasks: the set-up the benchmark times.  The returned
    function runs the timed region once and checks its outputs.

    [wrapped] routes every scheduler class hook and module callback
    through {!Timed} spans (and, for the fleet, each epoch step).  [hooks]
    overrides {!default_hooks}.  [pool] advances fleet hosts across its
    domains.  [anatomy] turns on the fleet's request anatomy.  [quick]
    shrinks every size for smoke tests. *)
val prepare :
  ?wrapped:bool ->
  ?hooks:hooks ->
  ?pool:Ds.Domain_pool.t ->
  ?anatomy:bool ->
  quick:bool ->
  seed:int ->
  t ->
  unit -> outcome

(** [Workloads.Setup.build] with every scheduler class hook wrapped in an
    [enoki_c] or [cfs] span, and the Enoki module in {!Timed.Make}. *)
val build_wrapped :
  ?tracer:Trace.Tracer.t ->
  ?registry:Metrics.Registry.t ->
  ?profile:Profile.t ->
  topology:Kernsim.Topology.t ->
  Workloads.Setup.kind ->
  Workloads.Setup.built

(** Hex digest of everything a machine reports: events, clock,
    accounting, wakeup latencies, Enoki-C calls and violations. *)
val machine_digest : Workloads.Setup.built -> string

(** Host time of the fleet's two cluster-tier front ends, rebuilt on their
    own with the fleet's tenants and policy: ns per request emitted by
    {!Cluster.Traffic}, and ns per {!Cluster.Lb} pick (with its dispatch
    and completion accounting). *)
val front_end_ns : quick:bool -> seed:int -> float * float
