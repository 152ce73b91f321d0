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

(** {2 Buffer writers}

    The exporters write every line straight into one [Buffer.t]; the
    request-anatomy timeline ({!Anatomy.chrome_json}) shares these. *)

(** [add_int buf n] appends [string_of_int n] without allocating. *)
val add_int : Buffer.t -> int -> unit

(** [add_us buf ns] appends [ns] nanoseconds as microseconds with three
    decimals, exactly as [Printf "%.3f" (float ns /. 1e3)] does for
    [|ns| < 2^52]. *)
val add_us : Buffer.t -> int -> unit

(** [add_meta buf ~pid ~tid ~name ~value] appends one metadata ("M")
    event naming a process or thread; [value] is escaped, [name] is not. *)
val add_meta : Buffer.t -> pid:int -> tid:int -> name:string -> value:string -> unit

(** {2 Documents} *)

(** Full Chrome trace-event JSON document ([{"traceEvents": [...]}]).
    [spans] (default true) includes the derived latency spans. *)
val chrome_json : ?spans:bool -> Event.t list -> string

(** Ftrace-style text. *)
val ftrace : Event.t list -> string

val render : format -> Event.t list -> string

(** Render straight into the file, without building the document as a
    string first. *)
val save : path:string -> format -> Event.t list -> unit
