(** Deterministic fault plans.

    A plan is an ordered list of rules; {!Inject.wrap} evaluates them
    against every message a scheduler module receives and fires at most
    one fault per call.  All randomness comes from the injector's seeded
    {!Stats.Prng} stream, so a (plan, seed, workload) triple reproduces
    the same faults at the same calls, bit for bit.

    The concrete spec grammar, one rule per [;]-separated item:

    {v kind[@call][:key=val[,key=val...]] v}

    where [kind] is one of [panic], [wrong-reply], [bad-select],
    [latency], [corrupt-hint], [wedge]; [@call] restricts the rule to one
    message kind (a {!Enoki.Message.call_name}, e.g.
    [panic@pick_next_task]); and the keys are [p] (firing probability per
    matching call, default 1.0), [after] (arm only after that many
    matching calls, default 0), [max] (total fires allowed, default
    unlimited), and [ns] (simulated nanoseconds for [latency]/[wedge]).
    [p] must lie between 0 and 1; [after], [max] and [ns] must be non-negative.

    [wrong-reply], [bad-select] and [corrupt-hint] only make sense on
    [pick_next_task], [select_task_rq] and [parse_hint] respectively and
    are implicitly restricted to them. *)

type ns = int

type kind =
  | Panic  (** raise out of the hook: a module panic *)
  | Wrong_reply  (** return a forged, stale [Schedulable] from [pick_next_task] *)
  | Bad_select  (** return an absurd cpu from [select_task_rq] *)
  | Latency of ns  (** charge a compute spike to the calling cpu *)
  | Corrupt_hint  (** scramble the pid in a [parse_hint] payload *)
  | Wedge of ns
      (** charge far past any per-call budget: the infinite-loop stand-in *)

type rule = {
  kind : kind;
  call : string option;  (** message-name gate; [None] = every applicable call *)
  prob : float;  (** firing probability per matching call *)
  after : int;  (** matching calls to ignore before arming *)
  max_fires : int;  (** lifetime cap on fires for this rule *)
}

type t = rule list

(** The exception an injected [Panic] raises inside the module. *)
exception Injected of string

val kind_name : kind -> string

(** Does [rule] apply to a call of this name (explicit gate plus the
    implicit per-kind restriction)? *)
val matches : rule -> call:string -> bool

(** Parse a spec string; [Error] carries a human-readable reason.  A spec
    that is exactly a preset name expands to that preset. *)
val parse : string -> (t, string) result

(** Round-trips through {!parse}. *)
val to_string : t -> string

(** Named canned plans ([panic], [wrong-reply], [bad-select], [latency],
    [wedge], [chaos]) for the CLI and the chaos bench sweep. *)
val presets : (string * t) list
