type ns = Kernsim.Time.ns

module type S = sig
  type t

  val name : string

  val create : Ctx.t -> t

  val get_policy : t -> int

  val pick_next_task :
    t -> cpu:int -> curr:Schedulable.t -> curr_runtime:ns -> Schedulable.t

  val pnt_err : t -> cpu:int -> pid:int -> err:string -> sched:Schedulable.t -> unit

  val task_dead : t -> pid:int -> unit

  val task_blocked : t -> pid:int -> runtime:ns -> cpu:int -> unit

  val task_wakeup : t -> pid:int -> runtime:ns -> waker_cpu:int -> sched:Schedulable.t -> unit

  val task_new : t -> pid:int -> runtime:ns -> prio:int -> sched:Schedulable.t -> unit

  val task_preempt : t -> pid:int -> runtime:ns -> cpu:int -> sched:Schedulable.t -> unit

  val task_yield : t -> pid:int -> runtime:ns -> cpu:int -> sched:Schedulable.t -> unit

  val task_departed : t -> pid:int -> cpu:int -> Schedulable.t

  val task_affinity_changed : t -> pid:int -> allowed:int list -> unit

  val task_prio_changed : t -> pid:int -> prio:int -> unit

  val task_tick : t -> cpu:int -> queued:bool -> unit

  val select_task_rq : t -> pid:int -> waker_cpu:int -> allowed:int list -> int

  val migrate_task_rq : t -> pid:int -> sched:Schedulable.t -> Schedulable.t

  val balance : t -> cpu:int -> int

  val balance_err : t -> cpu:int -> pid:int -> sched:Schedulable.t -> unit

  val reregister_prepare : t -> Upgrade.transfer option

  val reregister_init : Ctx.t -> Upgrade.transfer option -> t

  val parse_hint : t -> pid:int -> hint:Kernsim.Task.hint -> unit
end

module Defaults (T : sig
  type t
end) =
struct
  let pnt_err (_ : T.t) ~cpu:_ ~pid:_ ~err:_ ~sched:_ = ()

  let task_yield (_ : T.t) ~pid:_ ~runtime:_ ~cpu:_ ~sched:_ = ()

  let task_affinity_changed (_ : T.t) ~pid:_ ~allowed:_ = ()

  let task_prio_changed (_ : T.t) ~pid:_ ~prio:_ = ()

  let task_tick (_ : T.t) ~cpu:_ ~queued:_ = ()

  let balance (_ : T.t) ~cpu:_ = -1

  let balance_err (_ : T.t) ~cpu:_ ~pid:_ ~sched:_ = ()

  let reregister_prepare (_ : T.t) = None

  let parse_hint (_ : T.t) ~pid:_ ~hint:_ = ()
end

type packed = Packed : (module S with type t = 'a) * 'a -> packed
