(** Latency spans derived from the event stream.

    [Wakeup_to_dispatch] is the scheduling latency schbench reports: from a
    task becoming runnable to its next dispatch.  [Preempt_to_resched] is
    the time a still-runnable task spent off-cpu after being preempted or
    yielding.  [Migration] runs from a task's first {!Event.Migrate} to its
    next dispatch (chained hops collapse into one span; cleared when the
    task blocks or exits).  [Ingress_wait] is the cluster-tier queue wait:
    {!Event.Req_enqueue} to the matching {!Event.Req_take}, keyed by
    request-id, attributed to the taking worker's pid.  Spans are computed
    from a timestamp-ordered event list (as returned by {!Tracer.events});
    events lost to ring overrun simply yield fewer spans, and interleaved
    observability markers ([Fleet_op], [Metric_flush], DSQ events) never
    break adjacent spans. *)

type kind = Wakeup_to_dispatch | Preempt_to_resched | Migration | Ingress_wait

type t = { pid : int; cpu : int; kind : kind; start_ts : int; stop_ts : int }

val duration : t -> int

val kind_name : kind -> string

val of_events : Event.t list -> t list

(** {2 Incremental}

    [of_events events] is [finish] of a [builder] that was given each
    event in turn with [add]: the form an exporter uses to derive spans in
    a walk it already makes. *)

type builder

val builder : unit -> builder

val add : builder -> Event.t -> unit

(** The spans so far, in the order they closed. *)
val finish : builder -> t list
