(** The schedtrace event taxonomy.

    One constructor per observable scheduling transition.  The machine
    ({!Kernsim.Machine}), the Enoki-C dispatch boundary, and the lock shim
    all emit these through a {!Tracer}; exporters and the online
    {!Sanitizer} consume the same stream.

    Timestamps are simulated nanoseconds ({!Kernsim.Time.ns} is [int]); the
    trace library deliberately depends only on [Ds] so every layer above it
    (kernsim, core, schedulers) may emit events. *)

type ns = int

type kind =
  | Sched_switch of { prev : int option; next : int option }
      (** a cpu switched contexts; [next = None] means it went idle *)
  | Wakeup of { pid : int; waker_cpu : int; affinity : int list option }
      (** a task became runnable (wakeup or spawn) on the event's cpu *)
  | Dispatch of { pid : int }  (** the task started running on the cpu *)
  | Preempt of { pid : int }  (** descheduled while still runnable *)
  | Yield of { pid : int }
  | Block of { pid : int }  (** blocked on a channel or sleeping *)
  | Exit of { pid : int }
  | Migrate of { pid : int; from_cpu : int; to_cpu : int }
  | Tick  (** periodic scheduler tick on the event's cpu *)
  | Idle  (** the cpu entered its idle loop *)
  | Pnt_err of { pid : int; err : string }
      (** a Schedulable token failed validation ([consumed], [wrong_cpu],
          [stale_generation], [bad_select_cpu]) *)
  | Lock_acquire of { lock_id : int }
  | Lock_release of { lock_id : int }
  | Msg_call of { name : string }
      (** one scheduler invocation crossed the Enoki-C message boundary *)
  | Panic of { call : string; reason : string }
      (** a scheduler module raised out of the named hook; the Enoki-C
          boundary caught it ("module panic") *)
  | Failover of { fallback : string }
      (** Enoki-C quarantined the module and switched the policy's tasks to
          the named built-in fallback class *)
  | Overrun of { call : string; charged : ns; budget : ns }
      (** one dispatch charged more simulated time than the configured
          per-call budget (the infinite-loop stand-in) *)
  | Watchdog_fire of { reason : string }
      (** the fault watchdog tripped on the event stream (panic burst,
          call-budget overrun, sanitizer starvation) *)
  | Metric_flush of { tick : int }
      (** the metrics sampler took periodic snapshot number [tick]; an
          observability marker the sanitizer ignores in invariant checks *)
  | Dsq_insert of { dsq : string; pid : int }
      (** a task entered the named dispatch queue ({!Dsq}); observability
          marker, ignored by the sanitizer's invariant checks *)
  | Dsq_consume of { dsq : string; pid : int; wait : ns }
      (** a task left the named dispatch queue after waiting [wait]
          simulated ns (the DSQ dispatch latency); sanitizer-ignored *)
  | Fleet_op of { host : int; op : string }
      (** a cluster orchestration action ("drain", "admit", "upgrade",
          "panic-drill") hit the labelled fleet host; an observability
          marker the sanitizer ignores in invariant checks *)
  | Req_enqueue of { req : int; tenant : int }
      (** a cluster request with a fleet-wide request-id entered the host's
          ingress queue; an anatomy context marker the sanitizer ignores *)
  | Req_take of { req : int; pid : int }
      (** the worker task [pid] dequeued request [req] and began serving
          it; closes the request's {!Spans.Ingress_wait} span *)
  | Req_done of { req : int; pid : int }
      (** the worker task [pid] completed request [req]; sanitizer-ignored *)

type t = { ts : ns; cpu : int; kind : kind }

(** Stable event name ("sched_switch", "wakeup", ...): [names.(index kind)]. *)
val name : kind -> string

(** Every kind's name, in constructor order. *)
val names : string array

(** The kind's position in {!names}, 0 for [Sched_switch] up to 24 for
    [Req_done]. *)
val index : kind -> int

(** The subject task, when the event has one. *)
val pid_of : kind -> int option

(** Every payload key ("prev", "next", "pid", ...), by index. *)
val arg_keys : string array

(** [iter_args kind ~int ~str acc] visits the payload {!args} lists, in
    the same order, without building it: [int acc i key v] for an integer
    field, [str acc i key s] for a string one, [i] counting fields from 0
    and [key] indexing {!arg_keys}.  Allocates nothing beyond what the
    callbacks do, except for a wakeup carrying an affinity mask. *)
val iter_args :
  kind ->
  int:('a -> int -> int -> int -> unit) ->
  str:('a -> int -> int -> string -> unit) ->
  'a ->
  unit

val to_string : t -> string

(** {2 Packed form}

    How the {!Tracer}'s rings and its subscribers carry an event: a tag and
    three ints, [a], [b], [c], with no boxed value.  Pid fields encode "no
    task" as [-1].  The kinds the machine and the Enoki-C boundary emit on
    every dispatch each have a tag; every other kind is [T_cold] and travels
    as its boxed {!kind}. *)
type tag =
  | T_switch  (** [a] = prev, [b] = next *)
  | T_wakeup  (** an affinity-free wakeup: [a] = pid, [b] = waker cpu *)
  | T_dispatch  (** [a] = pid, likewise for the four below *)
  | T_preempt
  | T_yield
  | T_block
  | T_exit
  | T_migrate  (** [a] = pid, [b] = from cpu, [c] = to cpu *)
  | T_tick
  | T_idle
  | T_lock_acquire  (** [a] = lock id *)
  | T_lock_release  (** [a] = lock id *)
  | T_msg_call  (** [a] = index into {!call_names} *)
  | T_dsq_insert  (** [a] = {!dsq_index} of the queue's name, [b] = pid *)
  | T_dsq_consume  (** [a] = {!dsq_index}, [b] = pid, [c] = wait *)
  | T_cold  (** any other kind, carried boxed *)

(** [tag_index tag] numbers the tags [0 .. nr_tags - 1] in declaration
    order, for storing a tag as an int.  A constant constructor is
    represented by that number, so this is the identity and costs no call. *)
external tag_index : tag -> int = "%identity"

(** Every tag, by {!tag_index}: [tags.(tag_index tag) = tag]. *)
val tags : tag array

(** The Enoki-C crossing kinds by call index ("select_task_rq",
    "task_new", ...), named as the record log names them.  The boundary
    indexes its per-call counters and profile rows by the same index. *)
val call_names : string array

(** [dsq_index name] interns a dispatch-queue name (domain-safe; a queue
    calls it once, at creation) and returns its index, which {!dsq_name}
    decodes back to the name. *)
val dsq_index : string -> int

(** [dsq_name i] is the queue name {!dsq_index} numbered [i]. *)
val dsq_name : int -> string

(** [pack kind k] is [k tag a b c kind]: the kind's packed fields, and the
    kind itself for [T_cold].  A [Msg_call] whose name is not in
    {!call_names}, and a DSQ event whose queue name was never interned
    with {!dsq_index}, is [T_cold].  {!Slots.unpack} is the inverse. *)
val pack : kind -> (tag -> int -> int -> int -> kind -> 'r) -> 'r

(** For the tests only. *)
module Private : sig
  (** The number of tags. *)
  val nr_tags : int

  (** [call_index name] is [name]'s index in {!call_names}, or [-1]. *)
  val call_index : string -> int
end
