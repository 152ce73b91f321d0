(** Trace exporters.

    [Chrome] emits trace-event JSON loadable in [chrome://tracing] or
    Perfetto: one "machine" process with a thread per cpu, run slices
    reconstructed from dispatch/deschedule pairs, instant markers for every
    raw event, and a second "latency spans" process carrying the derived
    {!Spans} (wakeup→dispatch, preempt→resched).

    [Ftrace] emits the familiar one-line-per-event text format
    ([task-pid [cpu] seconds.usecs: event: args]). *)

type format = Chrome | Ftrace

val format_to_string : format -> string

val format_of_string : string -> format option

(** {2 Document writer}

    Every document is written twice by the same code: a sizing pass that
    only adds up lengths, then a filling pass into one [Bytes] of exactly
    that size, handed out as the string without a copy.  The
    request-anatomy timeline ({!Anatomy.chrome_json}) shares these. *)

type doc

(** [document write] runs [write] twice, sizing then filling, and returns
    what the second run wrote.  [write] must write the same text both
    times. *)
val document : (doc -> unit) -> string

val add_string : doc -> string -> unit

val add_char : doc -> char -> unit

(** [add_escaped d s] appends [s] escaped for the inside of a JSON string
    literal ({!Metrics.Json.escape}). *)
val add_escaped : doc -> string -> unit

(** [add_int d n] appends [string_of_int n] without allocating. *)
val add_int : doc -> int -> unit

(** [add_us d ns] appends [ns] nanoseconds as microseconds with three
    decimals, exactly as [Printf "%.3f" (float ns /. 1e3)] does for
    [|ns| < 2^52]. *)
val add_us : doc -> int -> unit

(** [add_meta d ~pid ~tid ~name ~value] appends one metadata ("M") event
    naming a process or thread; [value] is escaped, [name] is not. *)
val add_meta : doc -> pid:int -> tid:int -> name:string -> value:string -> unit

(** {2 Documents} *)

(** Full Chrome trace-event JSON document ([{"traceEvents": [...]}]),
    with the derived latency spans ({!Spans}) after the events.  Where
    [Domain.recommended_domain_count ()] is above 1, a helper domain writes
    the second half of the document beside the caller, and is joined
    before this returns or raises; the bytes do not depend on it. *)
val chrome_json : Event.t list -> string

(** Render the document in [format] and write it to [path]. *)
val save : path:string -> format -> Event.t list -> unit
