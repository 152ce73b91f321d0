(** Self-profiler for the Enoki-C message boundary.

    Reproduces the paper's Table-3-style breakdown: for every
    {!Enoki.Sched_trait} callback kind, per scheduler module, it
    attributes

    - the number of boundary crossings (dispatches),
    - {e simulated} nanoseconds the module charged during those calls
      (via [Ctx.charge]), and
    - {e host wall-clock} nanoseconds the OCaml callback actually took —
      the real cost of our reproduction's dispatch path — as the mean of
      a 1-in-64 sample.

    Crossing counts and simulated ns are exact.  Reading the host clock
    twice costs more than many crossings it would time, so each row
    times one crossing in each block of 64 of its own crossings, at a
    place in the block hashed from the block's number: a run times the
    same crossings every time, and the sample follows no period of the
    workload.

    Recording mutates plain OCaml state and never touches simulated time,
    so profiling cannot perturb scheduling decisions (wall-clock reads
    happen outside the simulator's universe entirely). *)

type t

type row = {
  sched : string;  (** scheduler module name *)
  call : string;  (** callback kind, e.g. ["pick_next_task"] *)
  count : int;  (** boundary crossings *)
  sim_ns : int;  (** total simulated ns charged by the module *)
  samples : int;
      (** crossings timed: one per complete block of 64, plus one when
          the last block's timed crossing has come, so [count / 64] or
          [(count + 63) / 64] *)
  wall_ns_per_call : float;
      (** mean host wall-clock ns of the timed crossings, 0 when none was *)
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

(** Whether the cell's next crossing is the one its block of 64 times. *)
val timed : cell -> bool

(** [record_cell t cell ~sim_ns ~wall_ns] adds one crossing.  [wall_ns] is
    its host wall-clock time when {!timed} said to time it, and negative
    when the crossing was not timed. *)
val record_cell : t -> cell -> sim_ns:int -> wall_ns:int -> unit

(** Total boundary crossings across all callbacks and modules. *)
val crossings : t -> int

(** All rows, grouped by scheduler, busiest callback first. *)
val rows : t -> row list

(** Table-3-style rendering: one row per (scheduler, callback) with
    crossings, mean simulated ns/call, mean wall ns/call over the timed
    crossings ("-" when none was) and how many were timed; feed to
    [Report.table]. *)
val table_header : string list

val table_rows : t -> string list list
