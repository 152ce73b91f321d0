(** [Make]: compile a small sched_ext-style policy into the full
    {!Enoki.Sched_trait.S} trait.

    The adapter owns everything generic — the per-cpu local {!Dsq} queues,
    the task table, token custody (a policy never touches a Schedulable),
    slice preemption, balance-time migration, and live-upgrade transfer of
    the whole queue state — so a policy is the five or so decisions
    sched_ext leaves to BPF: where to place a waking task
    ([select_cpu]), which queue it joins ([enqueue]), how an idle cpu
    refills its local queue ([dispatch]/[steal]), and any accounting on
    deschedule ([stopping]).  See [lib/schedulers/scx_simple.ml] for the
    canonical ~40-line policy. *)

(** Per-task bookkeeping the adapter maintains and hands to every policy
    hook.  [vtime] is policy-owned (carried across live upgrades), and
    {!Api.insert} queues the task at it; the rest is kernel-reported. *)
type task = {
  pid : int;
  mutable prio : int;  (** nice value from the last task_new/prio_changed *)
  mutable weight : int;  (** CFS load weight for [prio] *)
  mutable vtime : int;
  mutable last_runtime : int;
  mutable cpu : int;  (** cpu of the task's current/last token *)
}

val nice_0_load : int

(** [weighted ns ~weight] is [ns] scaled as CFS scales vruntime. *)
val weighted : int -> weight:int -> int

module Api : sig
  type t

  val nr_cpus : t -> int

  val now : t -> int

  (** Ask the kernel to re-run pick on [cpu] soon. *)
  val kick : t -> cpu:int -> unit

  val local : t -> cpu:int -> Dsq.t

  (** Get-or-create a shared queue by name (FIFO unless [mode] says
      otherwise); after a live upgrade this finds the adopted queue,
      contents intact. *)
  val shared_dsq : t -> ?mode:Dsq.mode -> string -> Dsq.t

  val queued : t -> Dsq.t -> int

  val running : t -> cpu:int -> int option

  (** Route the task in flight (inside [enqueue] only) into [dsq] at
      [task.vtime] (its key in a {!Dsq.Vtime} queue); inserts aimed at
      another cpu's local queue are redirected to the token's own. *)
  val insert : t -> Dsq.t -> task -> unit

  (** Pull the first entry of [dsq] licensed for [cpu] into its local
      queue; returns whether the local queue now has work. *)
  val move_to_local : t -> cpu:int -> Dsq.t -> bool

  (** Placement helper: previous cpu if idle, else an idle allowed cpu,
      else the shortest allowed local queue. *)
  val select_idle : t -> prev_cpu:int -> allowed:int list -> int

  (** Balance helpers (both return a migration candidate pid, or -1). *)

  val steal_head : t -> Dsq.t -> cpu:int -> int

  val steal_longest_local : t -> cpu:int -> int

  (** Times a policy forgot to insert an enqueued task and the adapter
      parked it on the fallback (local) queue. *)
  val fallback_inserts : t -> int
end

module type POLICY = sig
  type state

  val name : string

  (** Create policy state; ask {!Api.shared_dsq} for shared queues here. *)
  val init : Api.t -> state

  (** Place a waking/new task ([task.cpu] is its previous cpu). *)
  val select_cpu : state -> Api.t -> task -> waker_cpu:int -> allowed:int list -> int

  (** Route the task in flight into a queue via {!Api.insert}. *)
  val enqueue : state -> Api.t -> task -> unit

  (** [cpu]'s local queue ran dry: move work to it ({!Api.move_to_local}). *)
  val dispatch : state -> Api.t -> cpu:int -> unit

  (** The task came off a cpu having run [ran] more ns (weight-unscaled). *)
  val stopping : state -> Api.t -> task -> ran:int -> runnable:bool -> unit

  (** An idle cpu asks for a cross-cpu migration candidate (pid, or -1). *)
  val steal : state -> Api.t -> cpu:int -> int

  val tick : state -> Api.t -> cpu:int -> queued:bool -> unit
end

(** The one transfer shape shared by every DSQ policy: live upgrade moves
    the queues, task table, the id of the queue holding each queued pid
    ({!Dsq.id}, [-1] = none) and the running set ([-1] = none) verbatim
    between same-policy versions; adopting another policy's queues raises
    {!Enoki.Upgrade.Incompatible}. *)
type Enoki.Upgrade.transfer +=
  | Dsq_state of {
      policy : string;
      locals : Dsq.t array;
      shared : (string * Dsq.t) list;
      tasks : (int, task) Hashtbl.t;
      where : int array;
      running : int array;
    }

module Make (P : POLICY) : Enoki.Sched_trait.S
