(** The two passes of a benchmark run.

    The end-to-end pass runs each repeat of a workload in a child process
    of its own, so every repeat starts from a fresh heap and reports its
    own peak RSS.  The traced pass runs in the calling process: span
    calibration, one run with every span timed (exact allocation), three
    pairs of untraced and span-wrapped runs (time), and the extra runs the
    layer differentials need. *)

(** {1 End-to-end pass} *)

type repeat = {
  setup_ns : int list;  (** every set-up the child timed *)
  wall_ns : int;
  events : int;
  alloc_bytes : float;
  peak_rss_kb : int;
  digest : string;
  artefacts : string;
  sim : (string * float) list;
  problems : string list;
}

(** Body of a child process ([main.exe --child W]): three set-ups, one
    timed run of the last, one JSON line on stdout. *)
val child : quick:bool -> seed:int -> Workload.t -> unit

(** Repeats of every workload, each in a child process [exe --child ...]
    that is waited for (a child that fails or prints no result comes back
    as [Error]), interleaved round by round, until [seconds]
    per workload have passed (at least three rounds).  [on_repeat] sees
    each repeat as it lands. *)
val end_to_end :
  exe:string ->
  quick:bool ->
  seed:int ->
  seconds:float ->
  ?on_repeat:(Workload.t -> (repeat, string) result -> unit) ->
  Workload.t list ->
  (Workload.t * (repeat, string) result list) list

(** {1 Traced pass} *)

(** The hooks whose per-call self time the traced pass reports one by
    one, for the [enoki_c] and [sched] layers. *)
val hooks_of_interest : string list

type traced = {
  metrics : (string * float) list;  (** per-layer metrics, by name *)
  runs : int;  (** simulated runs made *)
  problems : string list;
  digest : string;  (** of the untraced reference run *)
}

(** [traced ~quick ~seed w] measures the per-layer metrics of [w].  With
    [sample_dir], the first spans of the wrapped run are written there as
    [spans-<workload>.json], a Chrome trace. *)
val traced : ?sample_dir:string -> quick:bool -> seed:int -> Workload.t -> traced
