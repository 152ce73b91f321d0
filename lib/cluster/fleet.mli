(** The simulated fleet: N machines behind a load balancer, driven by the
    open-loop {!Traffic} engine.

    Each host is a full {!Kernsim.Machine} built through
    {!Workloads.Setup.build} with its own scheduler (any
    {!Schedulers.Registry} entry; heterogeneous mixes are fine) and a pool
    of server tasks.  The fleet advances all hosts in lock-step {e epochs}:
    per epoch it drains the traffic engine's next arrival window, places
    every request through the balancer, injects each one into its host at
    its exact arrival time via the {!Kernsim.Machine.signal} doorbell, and
    runs every machine to the epoch boundary — one fixed interleaving, so
    a (seed, config) pair reproduces the whole fleet run bit for bit.

    The epoch is a {e conservative-lookahead barrier}: no host-to-host
    event crosses an epoch (load balancing and ingress placement happen at
    epoch edges, on the coordinating domain), so within an epoch the host
    machines are independent and may advance concurrently on a
    {!Ds.Domain_pool} ([create ?pool]).  Anything a host would write to
    fleet-shared state mid-advance (balancer completions, per-tenant
    counters, shared histograms, request anatomy, the oplog) is instead
    buffered per host with its inputs captured at emission time, and the
    buffers are replayed on the coordinating domain at the barrier in
    fixed host order, chronological within a host — exactly the sequential
    order.  Hence the hard contract the tests and `fleetgate` enforce:
    {b a fleet run is byte-identical for any pool size}, down to metric
    exports, anatomy tables, trace streams, and record-log bytes.  A
    host's scheduler module owns its locks ({!Enoki.Ctx.t.locks}), so lock
    ids, record streams, and lock trace events follow the host rather than
    whichever domain happens to run it.

    Orchestration rides on top:

    - {b rolling live upgrade} (§5.7 at fleet scale): staggered per-host
      {!Enoki.Enoki_c.upgrade} calls under load, with each host's upgrade
      pause recorded and completions inside the pause window attributed to
      a blackout histogram;
    - {b chaos drills} reusing [lib/fault]: a victim host's module is
      wrapped with a deterministic panic {!Fault.Plan}; the module panic
      quarantines and fails over to CFS inside the host, a
      {!Fault.Watchdog} (or the epoch poll of
      {!Enoki.Enoki_c.failover_stats}) detects it, the balancer drains the
      host, and once the host's queue runs dry it is re-admitted — the
      host panic → drain → failover → re-admit cycle. *)

type ns = Kernsim.Time.ns

(** Rolling-upgrade plan: host [i] upgrades (to its registry module, the
    §5.7 re-registration) at [at + i*stagger] on its own clock. *)
type upgrade = { at : ns; stagger : ns }

(** Chaos drill: [victim]'s module panics out of [pick_next_task] after
    [after_calls] scheduler calls; once drained, the host is re-admitted
    [recovery] ns after the drain (and only when its queue is empty). *)
type chaos = { victim : int; after_calls : int; recovery : ns }

type t

(** [create ~seed ~hosts ~tenants ()] builds the fleet.  One root [seed]
    is split (in fixed order) into the traffic, balancer and fault-plan
    streams.  [workers] server tasks per host pull requests off the host's
    ingress queue ([queue_cap] deep; overflow counts a drop); each request
    costs a 2 us dispatch overhead plus its own service time.  Latency
    histograms only record after [warmup].  A chaos victim must be an
    Enoki-module host.  Raises [Invalid_argument] on an empty [hosts] or
    [tenants], a non-positive [epoch] (the clock could never advance),
    [workers] or [queue_cap] (no request could ever complete), a tenant
    without connections or with a flow length that is not a finite mean
    [>= 1], a negative upgrade time or stagger, a non-positive
    [anatomy_top], or a chaos victim that is out of range or not an
    Enoki-module host; every message starts with ["Fleet.create:"].

    [anatomy] switches on the request-anatomy layer ({!Trace.Anatomy}):
    every request's end-to-end latency is decomposed into six exactly
    summing phases, aggregated per tenant/host/phase into the fleet
    registry, with the [anatomy_top] worst requests kept as exemplars.
    The switch draws no randomness and charges no simulated time, so
    anatomy on/off produces bit-identical fleet runs.  [record] attaches
    a replay-grade record log to host 0's Enoki boundary (ignored for
    non-Enoki host 0).  [observe:false] keeps every latency histogram
    cold for the whole run — the no-observability baseline the overhead
    bench compares against.

    [pool] attaches a {!Ds.Domain_pool}: each {!step} then advances the
    hosts concurrently across the pool's domains (a pool of size 1, or no
    pool, advances them in place on the same code path).  Results are
    byte-identical for any pool size; only wall clock changes.  The caller
    owns the pool's lifecycle (it may be shared between fleets, one run at
    a time) and shuts it down. *)
val create :
  ?topology:Kernsim.Topology.t ->
  ?workers:int ->
  ?queue_cap:int ->
  ?epoch:ns ->
  ?warmup:ns ->
  ?weights:int array ->
  ?lb:Lb.policy ->
  ?upgrade:upgrade ->
  ?chaos:chaos ->
  ?anatomy:bool ->
  ?anatomy_top:int ->
  ?record:Enoki.Record.t ->
  ?observe:bool ->
  ?pool:Ds.Domain_pool.t ->
  seed:int ->
  hosts:Schedulers.Registry.entry list ->
  tenants:Traffic.tenant list ->
  unit ->
  t

(** Advance the whole fleet by one epoch (clamped to [limit]): drain the
    traffic window, place every request, run each host to the boundary,
    poll the drill state machine.  Exposed so callers can interleave
    fleet-scope work — e.g. the CLI's periodic metrics sampling — at
    epoch granularity; {!run} is a [step] loop. *)
val step : t -> limit:ns -> unit

(** Advance the whole fleet to simulated time [until]. *)
val run : t -> until:ns -> unit

val clock : t -> ns

(** The fleet-level metrics registry (per-tenant / per-host labelled
    series), for export. *)
val registry : t -> Metrics.Registry.t

(** The request-anatomy aggregator when [create ~anatomy:true] was given. *)
val anatomy : t -> Trace.Anatomy.t option

(** Total simulator events dispatched across every host machine — the
    denominator for per-event overhead accounting. *)
val events_dispatched : t -> int

val traffic : t -> Traffic.t

(** Per-tenant results: total completions/drops/rejects and
    measured-window latency percentiles. *)
type tenant_stat = {
  tenant : string;
  completed : int;
  dropped : int;  (** host ingress-queue overflows *)
  rejected : int;  (** balancer had no host (all drained) *)
  p50 : ns;
  p99 : ns;
  p999 : ns;
}

val tenant_stats : t -> tenant_stat list

type host_stat = {
  host : int;
  sched : string;
  completed : int;
  p99 : ns;
  drained : bool;  (** currently out of rotation *)
  quarantined : bool;  (** module quarantined (failed over to CFS) *)
}

val host_stats : t -> host_stat list

(** Upgrades performed, in firing order: (host, pause ns). *)
val upgrades : t -> (int * ns) list

val upgrade_failures : t -> int

(** Completions that landed inside a host's upgrade blackout window: the
    fleet registry's histogram itself, read-only. *)
val blackout : t -> Stats.Histogram.t

(** Fleet orchestration timeline, oldest first: (when, host, op) with op
    one of "upgrade", "drain", "admit". *)
val oplog : t -> (ns * int * string) list

(** Every drilled (drained) host was re-admitted. *)
val converged : t -> bool

(** The chaos victim's sanitizer verdict ([true] when no victim tracer). *)
val sanitizer_ok : t -> bool
