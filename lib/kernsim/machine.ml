type ns = Time.ns

let nothing () = ()

type core = {
  id : int;
  mutable curr : int; (* pid currently dispatched; -1 = none.  Int-encoded
                         so the dispatch loop never boxes an option. *)
  mutable last_pid : int; (* previously dispatched pid, for switch cost *)
  mutable seg_run_start : ns; (* when the current task's compute started *)
  mutable seg_busy_from : ns; (* busy-time accounting start (incl. overhead) *)
  mutable pending_charge : ns; (* overhead to pay before the next dispatch *)
  mutable resched_queued : bool;
  mutable in_idle : bool; (* the core entered the idle loop *)
  mutable idle_since : ns;
  (* Pre-bound per-core event cells: the run-end timer ends the current
     task's compute segment and the custom timer carries a class's
     [set_timer] request.  Both are reusable [Sim.timer]s, so descheduling
     cancels in O(1) instead of leaving a tombstone event to dead-dispatch,
     and re-arming allocates nothing. *)
  mutable run_end : Sim.timer;
  mutable custom_timer : Sim.timer;
  (* the class slot whose [set_timer] armed [custom_timer] last *)
  mutable timer_slot : Sched_class.t option ref;
  (* one shared closure per core: resched events are never cancelled, so
     they don't need a cell, just an allocation-free thunk *)
  mutable resched_thunk : unit -> unit;
}

type chan = { mutable count : int; waiters : Ds.Int_deque.t }

type t = {
  sim : Sim.t;
  topo : Topology.t;
  costs : Costs.t;
  metrics : Accounting.t;
  (* the registry's run-long wakeup histogram; its counters read [metrics] *)
  wakeup_hist : Metrics.Registry.histogram option;
  tracer : Trace.Tracer.t option;
  tr_on : bool; (* guards event construction, not just the emit *)
  cores : core array;
  mutable classes : Sched_class.t array;
  (* Dense pid-indexed task table: pids are handed out contiguously from 1,
     so lookup is a bounds check plus an array load and iterating ascending
     indices is exactly spawn order (which keeps failover adoption and
     [tasks] deterministic). *)
  mutable task_arr : Task.t option array;
  mutable next_pid : int;
  mutable chans : chan array;
  mutable nr_chans : int;
  mutable ctx_cpu : int; (* cpu whose kernel context is executing *)
  (* last accounting group touched: segments overwhelmingly repeat one
     group, so this memo makes per-segment accounting hash-free.  Two flat
     mutable fields, not an option of a pair: the miss path must not
     allocate either (alternating groups would otherwise box a tuple per
     segment).  [acct_memo_c] starts as a detached null handle. *)
  mutable acct_memo_g : string;
  mutable acct_memo_c : Accounting.cells;
  (* One scratch behaviour context for the whole machine, refilled before
     every behaviour step instead of allocating a record per step.  Safe
     because behaviour calls never nest (wakeups and spawns triggered by a
     step don't run other behaviours synchronously) and the ctx contract
     forbids retention (see {!Task.ctx}). *)
  scratch_ctx : Task.ctx;
  (* Out-of-band payload for the int-encoded verdicts of [next_actions]:
     the run/sleep duration, so the verdict itself is an immediate int
     rather than a boxed polymorphic variant. *)
  mutable verdict_ns : ns;
}

(* [next_actions] verdicts, int-encoded: a `Run/`Sleep polymorphic variant
   would allocate two words per behaviour step.  Durations travel in
   [t.verdict_ns]. *)
let v_run = 0
let v_blocked = 1
let v_sleep = 2
let v_yield = 3
let v_exit = 4

let topology t = t.topo

let costs t = t.costs

let now t = Sim.now t.sim

let metrics t = t.metrics

let events_dispatched t = Sim.dispatched t.sim

let find_task t pid =
  if pid >= 0 && pid < t.next_pid then Array.unsafe_get t.task_arr pid else None

let get_task t pid =
  match find_task t pid with
  | Some task -> task
  | None -> invalid_arg (Printf.sprintf "Machine: unknown pid %d" pid)

let class_of_policy t policy =
  if policy < 0 || policy >= Array.length t.classes then
    invalid_arg (Printf.sprintf "Machine: unknown policy %d" policy);
  t.classes.(policy)

let class_of_task t (task : Task.t) = class_of_policy t task.policy

let cpu_idle t cpu = t.cores.(cpu).curr < 0

(* Every call site is guarded by [if t.tr_on then ...] so that with no
   tracer attached the event payload is never even constructed — emits are
   allocation-free, not merely cheap.  The hot kinds go through the
   tracer's packed entry points: payloads travel as ints straight into the
   ring columns, so a traced run allocates nothing per event either. *)
let tr_exn t = match t.tracer with Some tr -> tr | None -> assert false

let emit_wake t ~cpu ~waker_cpu (task : Task.t) =
  match t.tracer with
  | None -> ()
  | Some tr -> (
    match task.affinity with
    | None -> Trace.Tracer.emit_wakeup tr ~ts:(Sim.now t.sim) ~cpu ~pid:task.pid ~waker_cpu
    | Some _ ->
      (* affinity masks are cold: keep the boxed path rather than teach the
         ring columns to encode lists *)
      Trace.Tracer.emit tr ~ts:(Sim.now t.sim) ~cpu
        (Trace.Event.Wakeup { pid = task.pid; waker_cpu; affinity = task.affinity }))

(* ---------- channels ---------- *)

let new_chan t =
  let ch = { count = 0; waiters = Ds.Int_deque.create () } in
  if t.nr_chans = Array.length t.chans then begin
    let bigger = Array.make (max 8 (2 * Array.length t.chans)) ch in
    Array.blit t.chans 0 bigger 0 t.nr_chans;
    t.chans <- bigger
  end;
  t.chans.(t.nr_chans) <- ch;
  t.nr_chans <- t.nr_chans + 1;
  t.nr_chans - 1

let chan t id =
  if id < 0 || id >= t.nr_chans then invalid_arg "Machine: bad channel id";
  t.chans.(id)

let chan_waiters t id = Ds.Int_deque.length (chan t id).waiters

(* ---------- charging & resched ---------- *)

(* Overhead charged to a core in its idle loop is hidden by the idleness;
   overhead charged while the core is doing something delays its next
   dispatch. *)
let charge t ~cpu ns =
  let core = t.cores.(cpu) in
  if ns > 0 && not core.in_idle then core.pending_charge <- core.pending_charge + ns

let resched_cpu t cpu =
  let core = t.cores.(cpu) in
  if not core.resched_queued then begin
    core.resched_queued <- true;
    let delay = if cpu = t.ctx_cpu then 0 else t.costs.ipi_latency in
    Sim.after t.sim ~delay core.resched_thunk
  end

(* ---------- accounting ---------- *)

(* [==] on the group string: a hit is definitely the same group, a miss
   merely re-resolves, so the memo can never record into the wrong cell.
   The initial memo is a null handle whose group is a fresh (un-shared)
   string, so the first real lookup always misses. *)
let group_cells t (task : Task.t) =
  if t.acct_memo_g == task.group then t.acct_memo_c
  else begin
    let c = Accounting.cells t.metrics ~group:task.group in
    t.acct_memo_g <- task.group;
    t.acct_memo_c <- c;
    c
  end

(* Checkpoint the running task's consumed cpu time without ending its
   segment, so classes observing [sum_exec] (e.g. at tick) see fresh data. *)
let sync_curr t core =
  if core.curr >= 0 then begin
    let task = get_task t core.curr in
    let now_ = Sim.now t.sim in
    if now_ > core.seg_run_start then begin
      let consumed = min (now_ - core.seg_run_start) task.remaining in
      task.remaining <- task.remaining - consumed;
      task.sum_exec <- task.sum_exec + consumed;
      core.seg_run_start <- now_
    end;
    if now_ > core.seg_busy_from then begin
      Accounting.add_busy t.metrics (group_cells t task) ~cpu:core.id
        (now_ - core.seg_busy_from);
      core.seg_busy_from <- now_
    end
  end

(* A payload action's slot, emptied by the caller before anything else
   runs a behaviour on the scratch ctx. *)
let take_payload slot what =
  match slot with
  | Some v -> v
  | None -> invalid_arg ("Machine: " ^ what ^ " action without its payload")

(* ---------- wakeups ---------- *)

let rec wake_task t (task : Task.t) ~waker_cpu =
  match task.state with
  | Task.Blocked ->
    let now_ = Sim.now t.sim in
    task.state <- Task.Runnable;
    task.last_wake <- now_;
    task.wake_pending <- true;
    let cl = class_of_task t task in
    let cpu = cl.select_task_rq task ~waker_cpu in
    let cpu = if Task.allowed_cpu task cpu then cpu else first_allowed t task in
    task.cpu <- cpu;
    if t.tr_on then emit_wake t ~cpu ~waker_cpu task;
    cl.task_wakeup task ~cpu ~waker_cpu;
    charge t ~cpu:waker_cpu t.costs.wakeup_path;
    if cpu_idle t cpu then resched_cpu t cpu
  | Task.Runnable | Task.Running | Task.Dead -> ()

and first_allowed t (task : Task.t) =
  match task.affinity with
  | None -> 0
  | Some [] -> invalid_arg "Machine: empty affinity"
  | Some (c :: _) ->
    if c < 0 || c >= Topology.nr_cpus t.topo then invalid_arg "Machine: bad affinity" else c

and do_wake_chan t ch_id ~waker_cpu =
  let ch = chan t ch_id in
  let pid = Ds.Int_deque.pop_front ch.waiters in
  if pid >= 0 then wake_task t (get_task t pid) ~waker_cpu
  else ch.count <- ch.count + 1

(* ---------- behaviour execution ---------- *)

(* Run the task's behaviour through instantaneous actions until it yields
   an int verdict (see [v_run] etc.) on what the kernel should do with the
   task.  The behaviour context is the machine's reused scratch record:
   refill, call, and never let it escape. *)
and next_actions t core (task : Task.t) =
  let ctx = t.scratch_ctx in
  ctx.Task.now <- Sim.now t.sim;
  ctx.Task.self <- task.pid;
  ctx.Task.cpu <- core.id;
  (ctx.Task.inbox <-
     (match task.inbox with
     | [] -> []
     | inbox ->
       task.inbox <- [];
       List.rev inbox));
  let a = task.behaviour ctx in
  match Task.kind a with
  | Task.K_compute ->
    let d = Task.arg a in
    if d > 0 then begin
      t.verdict_ns <- d;
      v_run
    end
    else next_actions t core task
  | Task.K_block ->
    let ch = chan t (Task.arg a) in
    if ch.count > 0 then begin
      ch.count <- ch.count - 1;
      next_actions t core task
    end
    else begin
      Ds.Int_deque.push_back ch.waiters task.pid;
      v_blocked
    end
  | Task.K_wake ->
    do_wake_chan t (Task.arg a) ~waker_cpu:core.id;
    next_actions t core task
  | Task.K_sleep ->
    t.verdict_ns <- Task.arg a;
    v_sleep
  | Task.K_yield -> v_yield
  | Task.K_send_hint ->
    (* hint queues are registered per scheduler; any task may write into
       them (the Arachne runtime runs under CFS but talks to the arbiter),
       so the hint is offered to every class *)
    let h = take_payload ctx.Task.hint_out "send_hint" in
    ctx.Task.hint_out <- None;
    Array.iter (fun (cl : Sched_class.t) -> cl.deliver_hint task h) t.classes;
    next_actions t core task
  | Task.K_spawn ->
    let spec = take_payload ctx.Task.spawn_out "spawn" in
    ctx.Task.spawn_out <- None;
    ignore (spawn t spec);
    next_actions t core task
  | Task.K_exit -> v_exit

(* ---------- task creation ---------- *)

and spawn t (spec : Task.spec) =
  let pid = t.next_pid in
  t.next_pid <- t.next_pid + 1;
  if pid >= Array.length t.task_arr then begin
    let bigger = Array.make (max 64 (2 * Array.length t.task_arr)) None in
    Array.blit t.task_arr 0 bigger 0 (Array.length t.task_arr);
    t.task_arr <- bigger
  end;
  let task = Task.make spec ~pid ~now:(Sim.now t.sim) in
  t.task_arr.(pid) <- Some task;
  let cl = class_of_task t task in
  let waker_cpu = t.ctx_cpu in
  let cpu = cl.select_task_rq task ~waker_cpu in
  let cpu = if Task.allowed_cpu task cpu then cpu else first_allowed t task in
  task.cpu <- cpu;
  task.state <- Task.Runnable;
  task.last_wake <- Sim.now t.sim;
  task.wake_pending <- true;
  if t.tr_on then emit_wake t ~cpu ~waker_cpu task;
  cl.task_new task ~cpu;
  if cpu_idle t cpu then resched_cpu t cpu;
  pid

(* ---------- migration ---------- *)

and try_migrate t pid ~to_cpu (cl : Sched_class.t) =
  match find_task t pid with
  | None -> ()
  | Some task ->
    if
      task.state = Task.Runnable && task.cpu <> to_cpu && Task.allowed_cpu task to_cpu
      && (* the task must not be dispatched anywhere *)
      t.cores.(task.cpu).curr <> pid
    then begin
      let from_cpu = task.cpu in
      task.cpu <- to_cpu;
      task.migrations <- task.migrations + 1;
      Accounting.count_migration t.metrics;
      charge t ~cpu:to_cpu t.costs.migration;
      if t.tr_on then
        Trace.Tracer.emit_migrate (tr_exn t) ~ts:(Sim.now t.sim) ~cpu:to_cpu ~pid:task.pid
          ~from_cpu ~to_cpu;
      cl.migrate_task_rq task ~from_cpu ~to_cpu
    end
    else cl.balance_err task ~cpu:to_cpu

(* Move a runnable task between classes: the old class releases it via
   task_departed, the new one adopts it via select_task_rq + task_new. *)
and apply_policy_change t (task : Task.t) ~policy =
  (class_of_task t task).task_departed task ~cpu:task.cpu;
  task.policy <- policy;
  task.pending_policy <- None;
  let new_cl = class_of_policy t policy in
  let cpu = new_cl.select_task_rq task ~waker_cpu:t.ctx_cpu in
  let cpu = if Task.allowed_cpu task cpu then cpu else first_allowed t task in
  task.cpu <- cpu;
  new_cl.task_new task ~cpu;
  if cpu_idle t cpu then resched_cpu t cpu

(* ---------- the schedule operation ---------- *)

(* [pick_from], [dispatch] and [start_segment] are toplevel functions in
   the recursion, not closures inside [do_schedule]: a schedule operation
   is the hottest machine path and must not allocate its own loop. *)

and do_schedule t cpu =
  let core = t.cores.(cpu) in
  core.resched_queued <- false;
  let prev_ctx = t.ctx_cpu in
  t.ctx_cpu <- cpu;
  let prev_pid = core.curr in
  (* deschedule the current task, if any; the pending run-end event is
     truly cancelled (O(1)), not invalidated-and-dead-dispatched *)
  if core.curr >= 0 then begin
    sync_curr t core;
    Sim.cancel t.sim core.run_end;
    let task = get_task t core.curr in
    core.curr <- -1;
    if task.state = Task.Running then begin
      task.state <- Task.Runnable;
      if t.tr_on then Trace.Tracer.emit_preempt (tr_exn t) ~ts:(Sim.now t.sim) ~cpu ~pid:task.pid;
      (class_of_task t task).task_preempt task ~cpu;
      match task.pending_policy with
      | Some policy -> apply_policy_change t task ~policy
      | None -> ()
    end
  end;
  Accounting.count_schedule t.metrics ~cpu;
  let next = pick_from t cpu 0 in
  (if next < 0 then begin
     if not core.in_idle then begin
       core.in_idle <- true;
       core.idle_since <- Sim.now t.sim;
       if t.tr_on then begin
         let tr = tr_exn t and ts = Sim.now t.sim in
         Trace.Tracer.emit_switch tr ~ts ~cpu ~prev:prev_pid ~next:(-1);
         Trace.Tracer.emit_idle tr ~ts ~cpu
       end
     end
   end
   else dispatch t core (get_task t next) ~prev:prev_pid);
  t.ctx_cpu <- prev_ctx

(* balance + pick, classes in priority order, until a task sticks;
   -1 = every class declined *)
and pick_from t cpu i =
  if i >= Array.length t.classes then -1
  else begin
    let cl = t.classes.(i) in
    let bal = cl.balance ~cpu in
    if bal >= 0 then try_migrate t bal ~to_cpu:cpu cl;
    let pid = cl.pick_next_task ~cpu in
    if pid >= 0 then begin
      let task = get_task t pid in
      if task.state = Task.Runnable && task.cpu = cpu then pid
      else begin
        (* a native class returning an unrunnable task is the kernel
           crash the paper describes; surface it loudly *)
        Accounting.count_pick_violation t.metrics;
        invalid_arg
          (Printf.sprintf "Machine: class %s picked invalid pid %d (%s, cpu %d vs %d)"
             cl.name pid
             (Format.asprintf "%a" Task.pp_state task.state)
             task.cpu cpu)
      end
    end
    else pick_from t cpu (i + 1)
  end

and dispatch t core (task : Task.t) ~prev =
  let cpu = core.id in
  (* charge pending overhead + context switch before the task computes *)
  let now_ = Sim.now t.sim in
  let switch_cost = if core.last_pid <> task.pid then t.costs.context_switch else 0 in
  if switch_cost > 0 then Accounting.count_context_switch t.metrics;
  let wake_cost =
    if core.in_idle then
      if now_ - core.idle_since >= t.costs.deep_idle_after then t.costs.deep_idle_exit
      else t.costs.idle_exit
    else 0
  in
  core.in_idle <- false;
  let overhead = core.pending_charge + switch_cost + wake_cost in
  core.pending_charge <- 0;
  core.seg_busy_from <- now_;
  core.curr <- task.pid;
  core.last_pid <- task.pid;
  task.state <- Task.Running;
  if t.tr_on then begin
    let tr = tr_exn t in
    Trace.Tracer.emit_switch tr ~ts:now_ ~cpu ~prev ~next:task.pid;
    Trace.Tracer.emit_dispatch tr ~ts:now_ ~cpu ~pid:task.pid
  end;
  let run_start = now_ + overhead in
  if task.wake_pending then begin
    task.wake_pending <- false;
    Accounting.record_wakeup t.metrics (run_start - task.last_wake);
    match t.wakeup_hist with
    | Some h -> Metrics.Registry.observe h (run_start - task.last_wake)
    | None -> ()
  end;
  (* the behaviour advances only once the dispatch costs have elapsed;
     a task with no compute left runs its next actions at [run_start] *)
  start_segment t core task ~run_start

and start_segment t core (task : Task.t) ~run_start =
  core.seg_run_start <- run_start;
  Sim.arm_at t.sim core.run_end ~time:(run_start + task.remaining)

(* What to do when a task's behaviour stopped computing ([verdict] is one
   of the int codes; [v_run] never reaches here). *)
and apply_verdict t core (task : Task.t) verdict =
  let cpu = core.id in
  let cl = class_of_task t task in
  if verdict = v_blocked then begin
    task.state <- Task.Blocked;
    if t.tr_on then Trace.Tracer.emit_block (tr_exn t) ~ts:(Sim.now t.sim) ~cpu ~pid:task.pid;
    cl.task_blocked task ~cpu
  end
  else if verdict = v_sleep then begin
    task.state <- Task.Blocked;
    if t.tr_on then Trace.Tracer.emit_block (tr_exn t) ~ts:(Sim.now t.sim) ~cpu ~pid:task.pid;
    cl.task_blocked task ~cpu;
    let pid = task.pid in
    Sim.after t.sim ~delay:t.verdict_ns (fun () ->
        match find_task t pid with
        | Some task when task.state = Task.Blocked ->
          (* timer fires on the cpu the task last ran on *)
          let prev = t.ctx_cpu in
          t.ctx_cpu <- task.cpu;
          wake_task t task ~waker_cpu:task.cpu;
          t.ctx_cpu <- prev
        | Some _ | None -> ())
  end
  else if verdict = v_yield then begin
    task.state <- Task.Runnable;
    if t.tr_on then Trace.Tracer.emit_yield (tr_exn t) ~ts:(Sim.now t.sim) ~cpu ~pid:task.pid;
    cl.task_yield task ~cpu
  end
  else begin
    assert (verdict = v_exit);
    task.state <- Task.Dead;
    task.exited_at <- Some (Sim.now t.sim);
    if t.tr_on then Trace.Tracer.emit_exit (tr_exn t) ~ts:(Sim.now t.sim) ~cpu ~pid:task.pid;
    cl.task_dead task ~cpu
  end

(* The running task finished its compute quantum: advance its behaviour. *)
and segment_end t cpu (task : Task.t) =
  let core = t.cores.(cpu) in
  let prev_ctx = t.ctx_cpu in
  t.ctx_cpu <- cpu;
  sync_curr t core;
  let verdict = next_actions t core task in
  (if verdict = v_run then begin
     let d = t.verdict_ns in
     task.remaining <- d;
     (* continue on-cpu without a context switch: re-arm the same cell *)
     core.seg_run_start <- Sim.now t.sim;
     Sim.arm_at t.sim core.run_end ~time:(Sim.now t.sim + d)
   end
   else begin
     core.curr <- -1;
     apply_verdict t core task verdict;
     do_schedule t cpu
   end);
  t.ctx_cpu <- prev_ctx

(* ---------- ticks & timers ---------- *)

let tick t =
  let nr = Topology.nr_cpus t.topo in
  (* refresh accounting so classes see up-to-date runtimes *)
  for cpu = 0 to nr - 1 do
    sync_curr t t.cores.(cpu);
    if t.tr_on then Trace.Tracer.emit_tick (tr_exn t) ~ts:(Sim.now t.sim) ~cpu
  done;
  (* loops, not [Array.iter] over a closure: a tick allocates nothing *)
  for i = 0 to Array.length t.classes - 1 do
    let cl = t.classes.(i) in
    for cpu = 0 to nr - 1 do
      let prev = t.ctx_cpu in
      t.ctx_cpu <- cpu;
      cl.Sched_class.task_tick ~cpu ~queued:(t.cores.(cpu).curr >= 0);
      t.ctx_cpu <- prev
    done
  done;
  (* newidle-style pull for cpus sitting idle between wakeups *)
  for cpu = 0 to nr - 1 do
    if cpu_idle t cpu && not t.cores.(cpu).resched_queued then begin
      let prev = t.ctx_cpu in
      t.ctx_cpu <- cpu;
      do_schedule t cpu;
      t.ctx_cpu <- prev
    end
  done

(* ---------- construction ---------- *)

let create ?(costs = Costs.default) ?registry ?tracer ~topology ~classes () =
  let nr = Topology.nr_cpus topology in
  let metrics = Accounting.create ~nr_cpus:nr in
  (* registration order is export order *)
  let wakeup_hist =
    Option.map
      (fun reg ->
        let h =
          Metrics.Registry.histogram reg ~help:"wakeup-to-dispatch latency (ns)"
            "sched_wakeup_latency_ns"
        in
        Metrics.Registry.counter reg ~help:"task migrations" "sched_migrations_total" (fun () ->
            Accounting.run_migrations metrics);
        Metrics.Registry.counter reg ~help:"context switches charged"
          "sched_context_switches_total" (fun () -> Accounting.run_context_switches metrics);
        Metrics.Registry.counter reg ~help:"schedule operations" "sched_schedules_total"
          (fun () -> Accounting.run_schedules metrics);
        h)
      registry
  in
  let sim = Sim.create () in
  (* placeholder cell, replaced per core below; never armed *)
  let dummy_tm = Sim.timer sim nothing in
  let cores =
    Array.init nr (fun id ->
        {
          id;
          curr = -1;
          last_pid = -1;
          seg_run_start = 0;
          seg_busy_from = 0;
          pending_charge = 0;
          resched_queued = false;
          in_idle = true;
          idle_since = 0;
          run_end = dummy_tm;
          custom_timer = dummy_tm;
          timer_slot = ref None;
          resched_thunk = nothing;
        })
  in
  let t =
    {
      sim;
      topo = topology;
      costs;
      metrics;
      wakeup_hist;
      tracer;
      tr_on = (match tracer with Some _ -> true | None -> false);
      cores;
      classes = [||];
      task_arr = Array.make 64 None;
      next_pid = 1;
      chans = [||];
      nr_chans = 0;
      ctx_cpu = 0;
      (* String.make, not a literal: literals are shared, and a real task
         group equal to the sentinel must still miss on the first lookup *)
      acct_memo_g = String.make 1 '\000';
      acct_memo_c = Accounting.null_cells ();
      scratch_ctx = Task.make_ctx ();
      verdict_ns = 0;
    }
  in
  (* Bind each core's event cells and thunks exactly once: every schedule,
     segment end, resched and class timer after this point reuses them. *)
  Array.iter
    (fun core ->
      let cpu = core.id in
      core.resched_thunk <- (fun () -> do_schedule t cpu);
      core.run_end <-
        Sim.timer sim (fun () ->
            (* armed only while a task is dispatched; cancelled on
               deschedule, so firing means [curr] is the segment's task *)
            if core.curr >= 0 then segment_end t cpu (get_task t core.curr));
      core.custom_timer <-
        Sim.timer sim (fun () ->
            match !(core.timer_slot) with
            | Some cl ->
              let prev = t.ctx_cpu in
              t.ctx_cpu <- cpu;
              sync_curr t core;
              cl.task_tick ~cpu ~queued:(core.curr >= 0);
              t.ctx_cpu <- prev
            | None -> ()))
    cores;
  let make_ops (slot : Sched_class.t option ref) : Sched_class.kernel_ops =
    {
      now = (fun () -> Sim.now t.sim);
      nr_cpus = nr;
      topology;
      costs;
      defer = (fun ~delay f -> Sim.after t.sim ~delay f);
      resched_cpu = (fun cpu -> resched_cpu t cpu);
      set_timer =
        (fun ~cpu delay ->
          let core = t.cores.(cpu) in
          charge t ~cpu costs.timer_arm;
          (* last arm wins, exactly like the kernel's per-cpu hrtimer; the
             firing callback reads the arming class's slot *)
          core.timer_slot <- slot;
          Sim.arm_after t.sim core.custom_timer ~delay);
      cancel_timer = (fun ~cpu -> Sim.cancel t.sim t.cores.(cpu).custom_timer);
      charge = (fun ~cpu ns -> charge t ~cpu ns);
      send_user =
        (fun ~pid hint ->
          match find_task t pid with
          | Some task -> task.inbox <- hint :: task.inbox
          | None -> ());
      current =
        (fun ~cpu ->
          let pid = t.cores.(cpu).curr in
          if pid >= 0 then find_task t pid else None);
      cpu_is_idle = (fun cpu -> cpu_idle t cpu);
      find_task = (fun pid -> find_task t pid);
      live_tasks =
        (fun ~policy ->
          (* ascending pid = spawn order keeps failover adoption deterministic *)
          let rec collect pid acc =
            if pid = 0 then acc
            else
              collect (pid - 1)
                (match t.task_arr.(pid) with
                | Some (task : Task.t) when task.policy = policy && task.state <> Task.Dead ->
                  task :: acc
                | Some _ | None -> acc)
          in
          collect (t.next_pid - 1) []);
    }
  in
  let instantiated =
    List.map
      (fun factory ->
        let slot = ref None in
        let cl = factory (make_ops slot) in
        slot := Some cl;
        cl)
      classes
  in
  t.classes <- Array.of_list instantiated;
  (* Probes read machine state at sample/export time; they never run on a
     scheduling path, so they may sweep the task table freely. *)
  let count_tasks f =
    let n = ref 0 in
    for pid = 1 to t.next_pid - 1 do
      match Array.unsafe_get t.task_arr pid with
      | Some task -> if f task then incr n
      | None -> ()
    done;
    !n
  in
  (match registry with
  | Some reg ->
    Metrics.Registry.gauge_probe reg ~help:"runnable tasks (queued or running)"
      "machine_runq_depth" (fun () ->
        float_of_int (count_tasks (fun (task : Task.t) -> task.state = Task.Runnable)));
    Metrics.Registry.gauge_probe reg ~help:"tasks not yet exited" "machine_tasks_alive"
      (fun () ->
        float_of_int (count_tasks (fun (task : Task.t) -> task.state <> Task.Dead)));
    Metrics.Registry.gauge_probe reg ~help:"cumulative busy ns across cpus"
      "machine_busy_ns_total" (fun () -> float_of_int (Accounting.total_busy t.metrics));
    Metrics.Registry.gauge_probe reg ~help:"cumulative idle ns across cpus"
      "machine_idle_ns_total" (fun () ->
        float_of_int ((nr * Sim.now t.sim) - Accounting.total_busy t.metrics))
  | None -> ());
  (* the periodic tick re-arms itself: one closure for the whole run *)
  let rec tick_fire () =
    tick t;
    Sim.after t.sim ~delay:t.costs.tick_period tick_fire
  in
  Sim.after t.sim ~delay:t.costs.tick_period tick_fire;
  t

(* ---------- public control ---------- *)

let tasks t =
  let rec collect t pid acc =
    if pid = 0 then acc
    else
      collect t (pid - 1)
        (match t.task_arr.(pid) with Some task -> task :: acc | None -> acc)
  in
  collect t (t.next_pid - 1) []

let set_nice t ~pid ~nice =
  let task = get_task t pid in
  task.nice <- nice;
  (class_of_task t task).task_prio_changed task

let rec enforce_affinity t pid =
  match find_task t pid with
  | None -> ()
  | Some task ->
    if not (Task.allowed_cpu task task.cpu) then begin
      match task.state with
      | Task.Runnable ->
        (* sitting on a forbidden rq: move it now *)
        let cl = class_of_task t task in
        let to_cpu = first_allowed t task in
        let from_cpu = task.cpu in
        task.cpu <- to_cpu;
        task.migrations <- task.migrations + 1;
        Accounting.count_migration t.metrics;
        if t.tr_on then
          Trace.Tracer.emit_migrate (tr_exn t) ~ts:(Sim.now t.sim) ~cpu:to_cpu ~pid:task.pid
            ~from_cpu ~to_cpu;
        cl.migrate_task_rq task ~from_cpu ~to_cpu;
        if cpu_idle t to_cpu then resched_cpu t to_cpu
      | Task.Running ->
        (* kick it off the forbidden cpu, then finish the move *)
        resched_cpu t task.cpu;
        Sim.after t.sim ~delay:(t.costs.ipi_latency + 1) (fun () -> enforce_affinity t pid)
      | Task.Blocked | Task.Dead -> ()
    end

let set_affinity t ~pid affinity =
  let task = get_task t pid in
  task.affinity <- affinity;
  (class_of_task t task).task_affinity_changed task;
  enforce_affinity t pid

let set_policy t ~pid ~policy =
  let task = get_task t pid in
  ignore (class_of_policy t policy);
  if policy <> task.policy then
    match task.state with
    | Task.Running ->
      (* applied by do_schedule once the task is off its cpu *)
      task.pending_policy <- Some policy;
      resched_cpu t task.cpu
    | Task.Runnable ->
      apply_policy_change t task ~policy
    | Task.Blocked ->
      (* not queued anywhere: depart the old class now; the new class
         adopts the task at its next wakeup *)
      (class_of_task t task).task_departed task ~cpu:task.cpu;
      task.policy <- policy
    | Task.Dead -> ()

let at t ~delay f = Sim.after t.sim ~delay f

(* External ingress doorbell: a V on the channel from outside any task —
   the simulated analogue of a NIC interrupt delivering work into the
   machine.  The wakeup path is charged to cpu 0 (the IRQ core). *)
let signal t ch_id = do_wake_chan t ch_id ~waker_cpu:0

let run_until t until = Sim.run_until t.sim ~until

let run_for t d = Sim.run_until t.sim ~until:(Sim.now t.sim + d)

let spawn = spawn

let new_chan = new_chan

let chan_waiters = chan_waiters

module Private = struct
  let set_nice = set_nice

  let set_policy = set_policy
end
