(** Accounting collected by the machine while a simulation runs.

    The benchmark harness reads latencies and cpu shares from here; workload
    models additionally keep their own request-level histograms. *)

type t

val create : nr_cpus:int -> t

(** Resolved per-group busy-time handles for hot paths: one string hash
    at resolution, none per record.  Handles stay attached across
    {!reset} (reset zeroes them in place). *)
type cells

val cells : t -> group:string -> cells

(** A detached handle attached to no accounting instance: what memo fields
    point at before their first hit, so hot paths never match an option.
    Records into it are lost by design. *)
val null_cells : unit -> cells

(** Record a wakeup latency: time from a task's wakeup to its next
    dispatch (what schbench reports). *)
val record_wakeup : t -> Time.ns -> unit

(** Charge [ns] of busy time to [cpu] and to the group behind the handle. *)
val add_busy : t -> cells -> cpu:int -> Time.ns -> unit

val wakeup_latency : t -> Stats.Histogram.t

(** Busy time per cpu and per accounting group. *)
val busy_of_cpu : t -> int -> Time.ns

val busy_of_group : t -> string -> Time.ns

val total_busy : t -> Time.ns

(** Scheduling events in the window since the last {!reset}; the
    [run_*] readers count from machine start. *)

val count_schedule : t -> cpu:int -> unit

val schedules : t -> int

val run_schedules : t -> int

val count_migration : t -> unit

val migrations : t -> int

val run_migrations : t -> int

val count_pick_violation : t -> unit

(** Picks rejected because the returned Schedulable failed validation. *)
val pick_violations : t -> int

val count_context_switch : t -> unit

val context_switches : t -> int

val run_context_switches : t -> int

(** Start a new window: reset the latency histogram, busy time and pick
    violations and move the scheduling-event window start, keeping
    identities — used to discard warmup. *)
val reset : t -> unit
