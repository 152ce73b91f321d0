(** The central scheduler registry.

    One [(name, kind)] list feeds every consumer — [bin/enoki_sim]'s
    [--sched] vocabulary (including its help and bad-name error text),
    the bench harness's chaos/perf/speed matrices and the per-scheduler
    check table of the tests — so a scheduler registers exactly once. *)

type kind =
  | Builtin_cfs  (** the native CFS class *)
  | Enoki of (module Enoki.Sched_trait.S)
  | Ghost of Ghost_sim.policy

type entry = {
  name : string;  (** the CLI/bench spelling ("wfq", "scx-prio-dq", ...) *)
  kind : kind;
  arbiter : bool;
      (** the scheduler is a core arbiter: its tasks are activations that
          are dispatched only once the paired runtime requests cores, so
          bench matrices drive it with the memcached/Arachne runtime and
          relax the work-conservation and starvation checks it renounces
          by design *)
}

(** In presentation order (CFS first, then Enoki modules, then ghOSt). *)
val all : entry list

val names : string list

val find : string -> entry option

val enoki_module : entry -> (module Enoki.Sched_trait.S) option

(** Names of the Enoki-module entries (the record/replay/upgrade-capable
    set), for error messages. *)
val enoki_names : string list

(** The DSQ-based family ({!Dsq_sched} policies). *)
val dsq_names : string list
