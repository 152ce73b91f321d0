(** Self-profiler for the Enoki-C message boundary.

    Reproduces the paper's Table-3-style breakdown: for every
    {!Enoki.Sched_trait} callback kind, per scheduler module, it
    attributes

    - the number of boundary crossings (dispatches),
    - {e simulated} nanoseconds the module charged during those calls
      (via [Ctx.charge]), and
    - {e host wall-clock} nanoseconds the OCaml callback actually took —
      the real cost of our reproduction's dispatch path.

    Recording mutates plain OCaml state and never touches simulated time,
    so profiling cannot perturb scheduling decisions (wall-clock reads
    happen outside the simulator's universe entirely). *)

type t

type row = {
  sched : string;  (** scheduler module name *)
  call : string;  (** callback kind, e.g. ["pick_next_task"] *)
  count : int;  (** boundary crossings *)
  sim_ns : int;  (** total simulated ns charged by the module *)
  wall_ns : float;  (** total host wall-clock ns spent in the callback *)
}

val create : unit -> t

(** Host monotonic clock in nanoseconds; only differences are meaningful.
    A reading allocates nothing. *)
val now_ns : unit -> int

(** Bytes the calling domain has allocated so far: exact minor-heap
    allocation plus direct major-heap allocation.  Unlike
    [Gc.allocated_bytes], the difference of two readings does not depend
    on where minor collections fall, so a deterministic run reads the same
    bytes every time.  The bench suites and the allocation tests measure
    with it. *)
val allocated_bytes : unit -> float

(** One (scheduler, callback) row's accumulator.  {!cell} finds or makes
    it by name (a tuple key, two string hashes); a caller resolves it once
    and then records every crossing with {!record_cell}, which allocates
    nothing. *)
type cell

val cell : t -> sched:string -> call:string -> cell

(** [record_cell t cell ~sim_ns ~wall_ns] adds one crossing; a negative
    [wall_ns] counts as 0. *)
val record_cell : t -> cell -> sim_ns:int -> wall_ns:int -> unit

(** Total boundary crossings across all callbacks and modules. *)
val crossings : t -> int

(** All rows, grouped by scheduler, busiest callback first. *)
val rows : t -> row list

(** Table-3-style rendering: one row per (scheduler, callback) with
    crossings, mean simulated ns/call and mean wall ns/call; feed to
    [Report.table]. *)
val table_header : string list

val table_rows : t -> string list list
