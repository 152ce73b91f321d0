(* Each wrapper is written out rather than built from a higher-order
   helper: a closure per call would allocate inside the very spans that
   measure allocation. *)

module Make (S : Enoki.Sched_trait.S) = struct
  type t = S.t

  let l = Span.layer "sched"
  let l_pick = l "pick_next_task"
  let l_pnt_err = l "pnt_err"
  let l_dead = l "task_dead"
  let l_blocked = l "task_blocked"
  let l_wakeup = l "task_wakeup"
  let l_new = l "task_new"
  let l_preempt = l "task_preempt"
  let l_yield = l "task_yield"
  let l_departed = l "task_departed"
  let l_affinity = l "task_affinity_changed"
  let l_prio = l "task_prio_changed"
  let l_tick = l "task_tick"
  let l_select = l "select_task_rq"
  let l_migrate = l "migrate_task_rq"
  let l_balance = l "balance"
  let l_balance_err = l "balance_err"
  let l_prepare = l "reregister_prepare"
  let l_init = l "reregister_init"
  let l_hint = l "parse_hint"

  let name = S.name
  let create = S.create
  let get_policy = S.get_policy

  let pick_next_task t ~cpu ~curr ~curr_runtime =
    Span.enter l_pick;
    match S.pick_next_task t ~cpu ~curr ~curr_runtime with
    | r -> Span.leave l_pick; r
    | exception e -> Span.leave l_pick; raise e

  let pnt_err t ~cpu ~pid ~err ~sched =
    Span.enter l_pnt_err;
    match S.pnt_err t ~cpu ~pid ~err ~sched with
    | r -> Span.leave l_pnt_err; r
    | exception e -> Span.leave l_pnt_err; raise e

  let task_dead t ~pid =
    Span.enter l_dead;
    match S.task_dead t ~pid with
    | r -> Span.leave l_dead; r
    | exception e -> Span.leave l_dead; raise e

  let task_blocked t ~pid ~runtime ~cpu =
    Span.enter l_blocked;
    match S.task_blocked t ~pid ~runtime ~cpu with
    | r -> Span.leave l_blocked; r
    | exception e -> Span.leave l_blocked; raise e

  let task_wakeup t ~pid ~runtime ~waker_cpu ~sched =
    Span.enter l_wakeup;
    match S.task_wakeup t ~pid ~runtime ~waker_cpu ~sched with
    | r -> Span.leave l_wakeup; r
    | exception e -> Span.leave l_wakeup; raise e

  let task_new t ~pid ~runtime ~prio ~sched =
    Span.enter l_new;
    match S.task_new t ~pid ~runtime ~prio ~sched with
    | r -> Span.leave l_new; r
    | exception e -> Span.leave l_new; raise e

  let task_preempt t ~pid ~runtime ~cpu ~sched =
    Span.enter l_preempt;
    match S.task_preempt t ~pid ~runtime ~cpu ~sched with
    | r -> Span.leave l_preempt; r
    | exception e -> Span.leave l_preempt; raise e

  let task_yield t ~pid ~runtime ~cpu ~sched =
    Span.enter l_yield;
    match S.task_yield t ~pid ~runtime ~cpu ~sched with
    | r -> Span.leave l_yield; r
    | exception e -> Span.leave l_yield; raise e

  let task_departed t ~pid ~cpu =
    Span.enter l_departed;
    match S.task_departed t ~pid ~cpu with
    | r -> Span.leave l_departed; r
    | exception e -> Span.leave l_departed; raise e

  let task_affinity_changed t ~pid ~allowed =
    Span.enter l_affinity;
    match S.task_affinity_changed t ~pid ~allowed with
    | r -> Span.leave l_affinity; r
    | exception e -> Span.leave l_affinity; raise e

  let task_prio_changed t ~pid ~prio =
    Span.enter l_prio;
    match S.task_prio_changed t ~pid ~prio with
    | r -> Span.leave l_prio; r
    | exception e -> Span.leave l_prio; raise e

  let task_tick t ~cpu ~queued =
    Span.enter l_tick;
    match S.task_tick t ~cpu ~queued with
    | r -> Span.leave l_tick; r
    | exception e -> Span.leave l_tick; raise e

  let select_task_rq t ~pid ~waker_cpu ~allowed =
    Span.enter l_select;
    match S.select_task_rq t ~pid ~waker_cpu ~allowed with
    | r -> Span.leave l_select; r
    | exception e -> Span.leave l_select; raise e

  let migrate_task_rq t ~pid ~sched =
    Span.enter l_migrate;
    match S.migrate_task_rq t ~pid ~sched with
    | r -> Span.leave l_migrate; r
    | exception e -> Span.leave l_migrate; raise e

  let balance t ~cpu =
    Span.enter l_balance;
    match S.balance t ~cpu with
    | r -> Span.leave l_balance; r
    | exception e -> Span.leave l_balance; raise e

  let balance_err t ~cpu ~pid ~sched =
    Span.enter l_balance_err;
    match S.balance_err t ~cpu ~pid ~sched with
    | r -> Span.leave l_balance_err; r
    | exception e -> Span.leave l_balance_err; raise e

  let reregister_prepare t =
    Span.enter l_prepare;
    match S.reregister_prepare t with
    | r -> Span.leave l_prepare; r
    | exception e -> Span.leave l_prepare; raise e

  let reregister_init ctx transfer =
    Span.enter l_init;
    match S.reregister_init ctx transfer with
    | r -> Span.leave l_init; r
    | exception e -> Span.leave l_init; raise e

  let parse_hint t ~pid ~hint =
    Span.enter l_hint;
    match S.parse_hint t ~pid ~hint with
    | r -> Span.leave l_hint; r
    | exception e -> Span.leave l_hint; raise e
end

let sched (module S : Enoki.Sched_trait.S) = (module Make (S) : Enoki.Sched_trait.S)

let entry (e : Schedulers.Registry.entry) =
  match e.kind with
  | Schedulers.Registry.Enoki m -> { e with kind = Schedulers.Registry.Enoki (sched m) }
  | Schedulers.Registry.Builtin_cfs | Schedulers.Registry.Ghost _ -> e

let wrap fam (c : Kernsim.Sched_class.t) =
  let l = Span.layer fam in
  let l_select = l "select_task_rq"
  and l_new = l "task_new"
  and l_wakeup = l "task_wakeup"
  and l_blocked = l "task_blocked"
  and l_yield = l "task_yield"
  and l_preempt = l "task_preempt"
  and l_dead = l "task_dead"
  and l_departed = l "task_departed"
  and l_tick = l "task_tick"
  and l_pick = l "pick_next_task"
  and l_balance = l "balance"
  and l_balance_err = l "balance_err"
  and l_migrate = l "migrate_task_rq"
  and l_prio = l "task_prio_changed"
  and l_affinity = l "task_affinity_changed"
  and l_hint = l "deliver_hint" in
  {
    Kernsim.Sched_class.name = c.name;
    select_task_rq =
      (fun task ~waker_cpu ->
        Span.enter l_select;
        match c.select_task_rq task ~waker_cpu with
        | r -> Span.leave l_select; r
        | exception e -> Span.leave l_select; raise e);
    task_new =
      (fun task ~cpu ->
        Span.enter l_new;
        match c.task_new task ~cpu with
        | r -> Span.leave l_new; r
        | exception e -> Span.leave l_new; raise e);
    task_wakeup =
      (fun task ~cpu ~waker_cpu ->
        Span.enter l_wakeup;
        match c.task_wakeup task ~cpu ~waker_cpu with
        | r -> Span.leave l_wakeup; r
        | exception e -> Span.leave l_wakeup; raise e);
    task_blocked =
      (fun task ~cpu ->
        Span.enter l_blocked;
        match c.task_blocked task ~cpu with
        | r -> Span.leave l_blocked; r
        | exception e -> Span.leave l_blocked; raise e);
    task_yield =
      (fun task ~cpu ->
        Span.enter l_yield;
        match c.task_yield task ~cpu with
        | r -> Span.leave l_yield; r
        | exception e -> Span.leave l_yield; raise e);
    task_preempt =
      (fun task ~cpu ->
        Span.enter l_preempt;
        match c.task_preempt task ~cpu with
        | r -> Span.leave l_preempt; r
        | exception e -> Span.leave l_preempt; raise e);
    task_dead =
      (fun task ~cpu ->
        Span.enter l_dead;
        match c.task_dead task ~cpu with
        | r -> Span.leave l_dead; r
        | exception e -> Span.leave l_dead; raise e);
    task_departed =
      (fun task ~cpu ->
        Span.enter l_departed;
        match c.task_departed task ~cpu with
        | r -> Span.leave l_departed; r
        | exception e -> Span.leave l_departed; raise e);
    task_tick =
      (fun ~cpu ~queued ->
        Span.enter l_tick;
        match c.task_tick ~cpu ~queued with
        | r -> Span.leave l_tick; r
        | exception e -> Span.leave l_tick; raise e);
    pick_next_task =
      (fun ~cpu ->
        Span.enter l_pick;
        match c.pick_next_task ~cpu with
        | r -> Span.leave l_pick; r
        | exception e -> Span.leave l_pick; raise e);
    balance =
      (fun ~cpu ->
        Span.enter l_balance;
        match c.balance ~cpu with
        | r -> Span.leave l_balance; r
        | exception e -> Span.leave l_balance; raise e);
    balance_err =
      (fun task ~cpu ->
        Span.enter l_balance_err;
        match c.balance_err task ~cpu with
        | r -> Span.leave l_balance_err; r
        | exception e -> Span.leave l_balance_err; raise e);
    migrate_task_rq =
      (fun task ~from_cpu ~to_cpu ->
        Span.enter l_migrate;
        match c.migrate_task_rq task ~from_cpu ~to_cpu with
        | r -> Span.leave l_migrate; r
        | exception e -> Span.leave l_migrate; raise e);
    task_prio_changed =
      (fun task ->
        Span.enter l_prio;
        match c.task_prio_changed task with
        | r -> Span.leave l_prio; r
        | exception e -> Span.leave l_prio; raise e);
    task_affinity_changed =
      (fun task ->
        Span.enter l_affinity;
        match c.task_affinity_changed task with
        | r -> Span.leave l_affinity; r
        | exception e -> Span.leave l_affinity; raise e);
    deliver_hint =
      (fun task hint ->
        Span.enter l_hint;
        match c.deliver_hint task hint with
        | r -> Span.leave l_hint; r
        | exception e -> Span.leave l_hint; raise e);
  }

let klass fam (factory : Kernsim.Sched_class.factory) : Kernsim.Sched_class.factory =
 fun ops -> wrap fam (factory ops)

(* the wrapper under test is a class hook's, as most wrapped calls are *)
let calibrate () =
  let c = Kernsim.Sched_class.noop "probe" in
  let wc = wrap "span" c in
  Span.calibrate
    ~bare:(fun () -> ignore (Sys.opaque_identity (c.balance ~cpu:0)))
    ~wrapped:(fun () -> ignore (Sys.opaque_identity (wc.balance ~cpu:0)))
    ~probe:(Span.layer "span" "balance")
