(** The open-loop request path shared by the RocksDB ({!Rocksdb}) and
    memcached ({!Memcached}) drivers.

    A Poisson load generator emits requests in small batches
    (RX-coalescing style, so the generator's own dispatch overhead never
    throttles the offered load) onto one queue; servers take them in
    arrival order, spin for each request's service time, and record its
    latency (completion minus enqueue) once the warmup is over.  A request
    is two ints on a {!Ds.Int_deque}, its enqueue time and its service ns,
    and every behaviour's state is an int, so the path allocates nothing
    per request. *)

type t

(** [create b ~load_kreqs ~seed] makes an empty queue on [b]'s machine, a
    channel that blocking servers wait on, and the PRNG stream that
    draws the arrival gaps (exponential, mean 1/[load_kreqs]) and the
    service times.  Completed latencies also go to
    {!Setup.request_observer}. *)
val create : Setup.built -> load_kreqs:float -> seed:int -> t

(** Requests emitted so far, warmup included. *)
val arrivals : t -> int

(** The generator's behaviour.  It sleeps the sum of [batch] gaps, then
    emits [batch] requests one step each, each with a [service] draw
    (the cpu time a server spends on it), then takes a 1 ns step.  With
    [wake], each request wakes one blocked server ({!server}); without,
    the step computes 1 ns and polling servers find it ({!take}). *)
val loadgen :
  t -> batch:int -> service:(Stats.Prng.t -> int) -> wake:bool -> Kernsim.Task.behaviour

(** A blocking server thread: it blocks on the channel, and once woken
    serves requests until none waits, then blocks again.  Each request
    costs a compute of its service time and a 1 ns completion step. *)
val server : t -> Kernsim.Task.behaviour

(** [take t serving] removes the oldest request and returns its service
    ns, leaving its enqueue time in [serving]; -1, [serving] untouched,
    when none waits. *)
val take : t -> int ref -> int

(** [complete t ctx serving] records the latency of the request whose
    enqueue time is in [serving], if the measurement has begun, and sets
    [serving] to -1. *)
val complete : t -> Kernsim.Task.ctx -> int ref -> unit

type stats = {
  achieved_kreqs : float;  (** completions per second of [duration], thousands *)
  p99_us : float;
  p50_us : float;
}

(** [run t ~warmup ~duration] runs the machine for [warmup], resets its
    accounting and starts measuring, then runs [duration] more. *)
val run : t -> warmup:Kernsim.Time.ns -> duration:Kernsim.Time.ns -> stats
