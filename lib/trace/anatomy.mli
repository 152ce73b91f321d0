(** Request anatomy: online end-to-end latency decomposition for the
    cluster tier.

    Where did a tenant's p99 go?  Every cluster request carries a compact
    int request-id; the fleet reports three observations per request —
    {!enqueue} (the load balancer placed it on a host), {!take} (a worker
    task dequeued it) and {!complete} — plus two task-side facts at take
    time (the worker's [last_wake] and its lifetime migration counter).
    From these the module decomposes the measured end-to-end latency into
    six phases that {b sum exactly} (zero rounding, see
    {!max_sum_error}):

    - [Lb_decision]: request arrival to ingress-queue admission;
    - [Ingress_wait]: sitting in the host's ingress queue before the
      serving worker was woken (a worker that stayed busy between
      requests never re-blocks, so the whole queue delay lands here);
    - [Rq_wait]: worker wakeup to dispatch — the scheduling latency;
    - [Service]: nominal cpu demand (fleet dispatch overhead + request
      service time);
    - [Preempt_stall]: off-cpu time while preempted mid-service, minus
      the migration share;
    - [Migration_cost]: [migrations_during_service * costs.migration],
      capped by the stall.

    Aggregation is bounded-memory: exact per-tenant and per-host phase
    sums, optional per-tenant/per-host/per-phase histograms registered in
    a {!Metrics.Registry} (series [anatomy_phase_ns{tenant=...,phase=...}],
    [anatomy_phase_ns{host=...,phase=...}], [anatomy_e2e_ns{tenant=...}]),
    and a deterministic top-K worst-request exemplar ring whose timelines
    export as Chrome-trace flow events (arrows LB → host ingress →
    runqueue → worker).  Recording never touches simulated time and draws
    no randomness, so anatomy on/off cannot perturb the simulation. *)

type phase =
  | Lb_decision
  | Ingress_wait
  | Rq_wait
  | Service
  | Preempt_stall
  | Migration_cost

(** All phases in [durations]-index order. *)
val phases : phase list

val phase_index : phase -> int

(** Stable name ("lb_decision", "ingress_wait", ...). *)
val phase_name : phase -> string

type completion = {
  req : int;
  tenant : int;
  host : int;
  pid : int;  (** serving worker *)
  arrived : int;
  enqueued : int;
  woken : int;  (** clamped into [enqueued, taken] *)
  taken : int;
  completed : int;
  migrations : int;  (** cross-cpu moves while serving this request *)
  durations : int array;  (** indexed by {!phase_index}; sums to {!e2e} *)
}

val e2e : completion -> int

type t

(** [create ~migration_cost ~tenants ~hosts ()] sizes the exact
    aggregation arrays.  [top_k] bounds the exemplar ring (default 8).
    When [registry] is given, per-tenant/per-host/per-phase histograms
    are registered up front so the record path never allocates. *)
val create :
  ?top_k:int ->
  ?registry:Metrics.Registry.t ->
  migration_cost:int ->
  tenants:string array ->
  hosts:int ->
  unit ->
  t

(** The LB placed request [req] into host [host]'s ingress queue at
    [now].  [service] is the request's nominal cpu demand including the
    fleet's dispatch overhead; [arrived] is the traffic-engine arrival. *)
val enqueue :
  t -> req:int -> tenant:int -> host:int -> arrived:int -> service:int -> now:int -> unit

(** Worker [pid] dequeued [req] at [now].  [last_wake] and [migrations]
    come from the worker's {!Kernsim.Task.t} at take time. *)
val take : t -> req:int -> pid:int -> last_wake:int -> migrations:int -> now:int -> unit

(** Worker finished [req] at [now]; [migrations] is the worker's counter
    at completion (the delta since take is charged to the request). *)
val complete : t -> req:int -> migrations:int -> now:int -> unit

val completions : t -> int

(** Take/complete calls whose request-id was unknown (dropped requests). *)
val orphans : t -> int

(** Max |sum(durations) - e2e| seen; 0 by construction. *)
val max_sum_error : t -> int

(** The top-K worst completions, worst first (ties broken by lower
    request-id); deterministic for a fixed event order. *)
val exemplars : t -> completion list

val tenant_names : t -> string array

val tenant_count : t -> int -> int

val tenant_phase_sum : t -> int -> phase -> int

val tenant_e2e_sum : t -> int -> int

val save_chrome : t -> path:string -> unit

(** For the tests only. *)
module Private : sig
  (** Hook invoked with each completion after aggregation (tests, CLI). *)
  val on_complete : t -> (completion -> unit) -> unit

  (** Chrome trace-event JSON for the exemplar ring: one process per host
      plus a "load balancer" process, per-phase slices, and flow arrows
      following each request across tracks.  Load into Perfetto /
      [chrome://tracing]. *)
  val chrome_json : t -> string
end
