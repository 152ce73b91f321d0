(** Metric catalogue, reference digests, and result files. *)

type better = Lower | Higher

(** An end-to-end metric: what a user of [enoki_sim] pays, measured with
    tracing off.  [bound] is the share of the parent's median by which the
    metric may get worse before a change counts as a regression. *)
type e2e = { name : string; unit_ : string; better : better; bound : float }

val end_to_end : e2e list

(** A per-layer metric from the traced pass.  [exact] ones repeat exactly
    for a seed (simulated results and counts); the rest are host timings
    and have no bound. *)
type layer = { lname : string; lunit : string; lbetter : better; exact : bool }

val per_layer : layer list

val better_name : better -> string

(** Python's [statistics.quantiles(xs, n=4)] (its default, exclusive
    method) with the median in the middle: [(q1, median, q3)]. *)
val quartiles : float list -> float * float * float

type stat = { median : float; q1 : float; q3 : float; n : int }

val stat : float list -> stat

(** {1 Reference digests}

    [benchmark/expected/<workload>.json] maps seeds to the digests of a
    full-size untraced run.  A model change that moves a simulated output
    rewrites them on purpose ([--write-expected]). *)

val write_expected :
  Workload.t -> seed:int -> digest:string -> artefacts:string -> sim:(string * float) list -> unit

(** {1 One set of results} *)

type workload_result = {
  workload : string;
  attempted : int;  (** simulated runs *)
  failed : int;  (** runs that failed a correctness check *)
  problems : string list;
  digest : string;
  sim : (string * float) list;
  e2e : (string * stat) list;  (** empty when the end-to-end pass did not run *)
  layers : (string * float) list;  (** empty when the traced pass did not run *)
}

(** Fold the end-to-end repeats and the traced pass of one workload into a
    result, checking every run against the reference digest for [seed]
    (outside [quick] mode) and against each other. *)
val workload_result :
  quick:bool ->
  seed:int ->
  Workload.t ->
  repeats:(Measure.repeat, string) result list ->
  traced:Measure.traced option ->
  workload_result

type set = { seed : int; quick : bool; workloads : workload_result list }

val to_json : set list -> Metrics.Json.t

val of_json : Metrics.Json.t -> (set list, string) result

(** {1 Reading results} *)

(** Human-readable tables of one set. *)
val print_set : set -> unit

(** The last line the benchmark prints: [correct], [attempted], [failed]
    and [metrics], each metric with its value and unit.  Metric names are
    prefixed with ["<workload>/"] when the set holds several workloads. *)
val summary_line : set -> string

(** For two sets of the same code: does each end-to-end median agree
    within its bound, and is each exact metric identical?  Prints one line
    per metric and workload; [true] when all agree. *)
val agree : set -> set -> bool

(** Diff two sets by bound, one row per workload; [true] when no metric
    got worse by more than its bound. *)
val compare : set -> set -> bool
