(** The open-loop traffic engine: seeded streaming flow generators.

    A {e tenant} is one traffic class — an arrival process, a service-time
    distribution, a mean flow length, and a fixed pool of connection slots.
    Each slot cycles open → emit its flow's requests at open-loop gaps →
    close → reopen as a fresh flow, so the engine sustains millions of
    {e flows} while its live state is exactly the slot pool: memory is
    bounded by construction, independent of how many flows the run churns
    through (the §5-scale acceptance property).

    Every slot owns a {!Stats.Prng} stream split from the engine seed at
    creation, and advances only on its own state, so the emitted request
    stream is bit-for-bit identical for a given seed {e regardless of the
    window size} the caller drains with — the fleet tier's epoch length
    cannot perturb the traffic. *)

type ns = Kernsim.Time.ns

(** Arrival processes; rates in requests/second for the whole tenant
    (split evenly across its connection slots, so the aggregate is exact
    by Poisson superposition). *)
type arrival =
  | Poisson of { rate : float }  (** homogeneous open-loop arrivals *)
  | Diurnal of { mean_rate : float; amplitude : float; period : ns }
      (** sinusoidal rate [mean*(1 + amp*sin(2pi t/period))], sampled by
          thinning, so it integrates exactly to [mean_rate] over a period *)
  | Burst of { base_rate : float; burst_rate : float; mean_on : ns; mean_off : ns }
      (** per-slot on/off modulated Poisson (antagonist bursts): [burst_rate]
          during exponential on-phases of mean [mean_on], [base_rate]
          otherwise *)

(** Instantaneous rate (req/s) at simulated time [t] — test hook for the
    diurnal-integral property.  [Burst] reports its time-average. *)
val rate_at : arrival -> ns -> float

(** Time-average rate in req/s. *)
val mean_rate : arrival -> float

type tenant = {
  name : string;
  arrival : arrival;
  service : Stats.Dist.t;  (** per-request service time, ns *)
  flow_len_mean : float;  (** mean requests per flow (geometric), >= 1 *)
  connections : int;  (** slot-pool size: the live-flow bound *)
}

(** A request emitted by the engine.  [req_id] is a dense fleet-wide
    request-id (emission order, deterministic for a seed) that the anatomy
    layer threads through the stack; [flow_key] is stable for all requests
    of one flow and unique across the run (consistent-hash LB affinity keys
    on it); [tenant] indexes the creation-time tenant list. *)
type request = { req_id : int; tenant : int; flow_key : int; arrived : ns; service : ns }

(** The canonical three-tenant fleet mix, splitting [load_kreqs] (total
    thousand req/s) as: [web] 60% steady Poisson with 5–25 us services,
    [api] 25% diurnal (0.7 amplitude, 200 ms period) with log-normal
    services, and [batch] 15% bursty antagonist with heavy-tailed Pareto
    services — the multi-tenant antagonist mix the fleet benches drive. *)
val standard_mix : ?connections:int -> ?flow_len:float -> load_kreqs:float -> unit -> tenant list

type t

(** [create ~seed ~start tenants] opens every slot with its first flow;
    first arrivals fall after [start]. *)
val create : seed:int -> start:ns -> tenant list -> t

(** [iter_window t ~until emit] emits every request with [arrived < until]
    through [emit], in (time, tenant, slot) order; each call resumes where
    the previous one stopped.  The request travels as five ints, so the
    engine allocates nothing per request: a caller that keeps one [emit]
    closure (the fleet's placement) drains the stream allocation-free. *)
val iter_window :
  t ->
  until:ns ->
  (req_id:int -> tenant:int -> flow_key:int -> arrived:ns -> service:ns -> unit) ->
  unit

(** The same window as a list of {!request} records. *)
val next_window : t -> until:ns -> request list

val tenant_name : t -> int -> string

val nr_tenants : t -> int

(** Flows opened / fully emitted so far. *)
val flows_started : t -> int

val flows_completed : t -> int

val requests_emitted : t -> int

(** Flows currently open — always exactly the total connection-slot count,
    whatever the churn: the bounded-memory invariant. *)
val live_flows : t -> int
