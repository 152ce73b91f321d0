module Ops = Kernsim.Sched_class

(* Crossing kinds: indices into [call_names] and [obs.o_per_call].  The
   table is the trace's ([Trace.Event.call_names], named as
   [Message.call_name] names them), so traces, profiles and metrics name a
   callback exactly as the record log does, and a traced crossing is just
   its index. *)
let call_names = Trace.Event.call_names

let k_select = 0 and k_new = 1 and k_wakeup = 2 and k_blocked = 3 and k_yield = 4
and k_preempt = 5 and k_dead = 6 and k_departed = 7 and k_tick = 8 and k_pick = 9
and k_pnt_err = 10 and k_balance = 11 and k_balance_err = 12 and k_migrate = 13 and k_prio = 14
and k_affinity = 15 and k_hint = 16

(* Registry handles for the dispatch boundary, resolved once at [create].
   Per-callback counters are registered on a kind's first crossing (so the
   registry lists only callbacks that ran, in first-use order) and cached
   in the slot of that kind. *)
type obs = {
  reg : Metrics.Registry.t;
  o_calls : Metrics.Registry.counter;
  o_call_lat : Metrics.Registry.histogram;
  o_panics : Metrics.Registry.counter;
  o_failovers : Metrics.Registry.counter;
  o_overruns : Metrics.Registry.counter;
  o_violations : Metrics.Registry.counter;
  o_per_call : Metrics.Registry.counter option array;
}

type t = {
  modul : (module Sched_trait.S); (* version registered at load time *)
  policy : int;
  mutable packed : Sched_trait.packed option;
  mutable ops : Ops.kernel_ops option;
  mutable all_cpus : int list; (* the [allowed] of an unpinned task, built at registration *)
  (* pid -> latest Schedulable generation, dense (pids are small and
     contiguous).  0 means "no outstanding capability"; minted generations
     start at 1.  [ngens] counts live (non-zero) entries.  [consumed] holds
     the generation of the pid's last token returned to us, 0 = none. *)
  mutable gens : int array;
  mutable consumed : int array;
  mutable ngens : int;
  hint_ring : (int * Kernsim.Task.hint) Ds.Ring_buffer.t;
  record : Record.t option;
  tracer : Trace.Tracer.t option;
  obs : obs option;
  profile : Profile.t option;
  (* the profile row of each call kind for the registered module, resolved
     on the kind's first crossing and reset when an upgrade swaps modules *)
  prof_cells : Profile.cell option array;
  mutable calls : int;
  mutable violations : int;
  violation_kinds : (string, int) Hashtbl.t;
  mutable current_tid : int;
  mutable upgrades : Upgrade.stats list;
  mutable readers : int; (* quiescing read-write lock: in-flight calls *)
  (* fault isolation (the paper's "kernel survives module bugs" property) *)
  isolate : bool;
  call_budget : Kernsim.Time.ns option;
  mutable quarantined : (string * Kernsim.Time.ns) option; (* reason, since *)
  mutable fallback : Ops.t option; (* instantiated CFS, while quarantined *)
  mutable panics : int;
  mutable failovers : int;
  mutable overruns : int;
  mutable blackout : Kernsim.Time.ns option; (* quarantine -> first fallback pick *)
  mutable charged_in_call : Kernsim.Time.ns;
  mutable history : (module Sched_trait.S) list; (* superseded versions, newest first *)
}

let create ?(policy = 0) ?record ?tracer ?registry ?profile ?(hint_capacity = 1024)
    ?(isolate = true) ?call_budget modul =
  let obs =
    Option.map
      (fun reg ->
        {
          reg;
          o_calls =
            Metrics.Registry.counter reg ~help:"Enoki-C boundary crossings" "enoki_calls_total";
          o_call_lat =
            Metrics.Registry.histogram reg ~help:"simulated ns charged per boundary crossing"
              "enoki_call_sim_ns";
          o_panics = Metrics.Registry.counter reg ~help:"module panics caught" "enoki_panics_total";
          o_failovers =
            Metrics.Registry.counter reg ~help:"failovers to the CFS fallback"
              "enoki_failovers_total";
          o_overruns =
            Metrics.Registry.counter reg ~help:"per-call budget overruns" "enoki_overruns_total";
          o_violations =
            Metrics.Registry.counter reg ~help:"API discipline violations" "enoki_violations_total";
          o_per_call = Array.make (Array.length call_names) None;
        })
      registry
  in
  {
    modul;
    policy;
    packed = None;
    ops = None;
    all_cpus = [];
    gens = Array.make 64 0;
    consumed = Array.make 64 0;
    ngens = 0;
    hint_ring = Ds.Ring_buffer.create ~capacity:hint_capacity;
    record;
    tracer;
    obs;
    profile;
    prof_cells =
      (match profile with Some _ -> Array.make (Array.length call_names) None | None -> [||]);
    calls = 0;
    violations = 0;
    violation_kinds = Hashtbl.create 8;
    current_tid = 0;
    upgrades = [];
    readers = 0;
    isolate;
    call_budget;
    quarantined = None;
    fallback = None;
    panics = 0;
    failovers = 0;
    overruns = 0;
    blackout = None;
    charged_in_call = 0;
    history = [];
  }

let ops_exn t =
  match t.ops with
  | Some ops -> ops
  | None -> invalid_arg "Enoki_c: scheduler module not loaded into a machine yet"

(* Schedtrace emitter: a single match when disabled.  Timestamps come from
   the kernel capability table, so this stays silent until registration. *)
let emit t ~cpu kind =
  match (t.tracer, t.ops) with
  | Some tr, Some (ops : Ops.kernel_ops) -> Trace.Tracer.emit tr ~ts:(ops.now ()) ~cpu kind
  | _ -> ()

let emit_tag t ~cpu tag a b c =
  match (t.tracer, t.ops) with
  | Some tr, Some (ops : Ops.kernel_ops) -> Trace.Tracer.emit_tag tr ~ts:(ops.now ()) ~cpu tag a b c
  | _ -> ()

let packed_exn t =
  match t.packed with
  | Some p -> p
  | None -> invalid_arg "Enoki_c: scheduler module not loaded into a machine yet"

let scheduler_name t =
  match t.packed with
  | Some (Sched_trait.Packed ((module S), _)) -> S.name
  | None ->
    let (module S : Sched_trait.S) = t.modul in
    S.name

let calls t = t.calls

let violations t = t.violations

(* [Hashtbl.find] rather than [find_opt]: a repeat violation boxes nothing *)
let count_violation t kind =
  t.violations <- t.violations + 1;
  Hashtbl.replace t.violation_kinds kind
    (1 + match Hashtbl.find t.violation_kinds kind with n -> n | exception Not_found -> 0);
  match t.obs with Some o -> Metrics.Registry.incr o.o_violations ~cpu:0 | None -> ()

let per_call_counter o k =
  match Array.unsafe_get o.o_per_call k with
  | Some c -> c
  | None ->
    let c =
      Metrics.Registry.counter o.reg ~help:"boundary crossings for one callback"
        ("enoki_call_" ^ call_names.(k) ^ "_total")
    in
    o.o_per_call.(k) <- Some c;
    c

let profile_cell t p k =
  match Array.unsafe_get t.prof_cells k with
  | Some c -> c
  | None ->
    let c = Profile.cell p ~sched:(scheduler_name t) ~call:call_names.(k) in
    t.prof_cells.(k) <- Some c;
    c

let violation_breakdown t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.violation_kinds []
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)

let hints_dropped t = Ds.Ring_buffer.dropped t.hint_ring

let upgrades t = t.upgrades

(* ---------- capabilities ---------- *)

let ensure_gens t pid =
  let n = Array.length t.gens in
  if pid >= n then begin
    let n' = max (n * 2) (pid + 1) in
    t.gens <- Ds.Column.grow t.gens n' 0;
    t.consumed <- Ds.Column.grow t.consumed n' 0
  end

(* Bump pid's generation; both minting and invalidation go through here
   (a fresh pid starts at 1, exactly as the hash-table version did). *)
let bump_gen t pid =
  ensure_gens t pid;
  let g = Array.unsafe_get t.gens pid in
  if g = 0 then t.ngens <- t.ngens + 1;
  let g' = Schedulable.Private.next_generation g in
  Array.unsafe_set t.gens pid g';
  g'

let forget_gen t pid =
  if pid < Array.length t.gens then begin
    if Array.unsafe_get t.gens pid <> 0 then t.ngens <- t.ngens - 1;
    Array.unsafe_set t.gens pid 0;
    Array.unsafe_set t.consumed pid 0
  end

let mint t ~pid ~cpu = Schedulable.Private.create ~pid ~cpu ~gen:(bump_gen t pid)

(* Any kernel state transition supersedes outstanding tokens. *)
let invalidate t ~pid = ignore (bump_gen t pid)

(* A token came back to us: a later return of it reads as consumed.  A
   pid past the table was never minted a token, so there is nothing to
   mark (and a forged pid cannot grow the table). *)
let consume t token =
  let pid = Schedulable.pid token in
  if pid >= 0 && pid < Array.length t.consumed then
    Array.unsafe_set t.consumed pid (Schedulable.generation token)

(* Why [token] may not run on [cpu], or "" when it may: returned already,
   then the wrong core, then superseded.  Minted generations start at 1,
   so a forged generation 0 reads as stale even for a pid holding none. *)
let token_fault t token ~cpu =
  let pid = Schedulable.pid token and gen = Schedulable.generation token in
  let known = gen <> 0 && pid < Array.length t.gens in
  if known && Array.unsafe_get t.consumed pid = gen then "consumed"
  else if Schedulable.cpu token <> cpu then "wrong_cpu"
  else if known && Array.unsafe_get t.gens pid = gen then ""
  else "stale_generation"

(* ---------- crossing ---------- *)

(* Settle a crossing, on return and on raise alike, so a call that both
   overruns and raises is still surfaced.  The per-call latency is the fixed
   crossing cost plus whatever the module charged; profile rows add the host
   wall clock.  Neither moves simulated time. *)
let leave t (ops : Ops.kernel_ops) ~cpu k saved_charge wall0 =
  t.readers <- t.readers - 1;
  (* the wedged-module detector: compare what the module charged via
     [Ctx.charge] during this call against the per-call budget *)
  let charged = t.charged_in_call in
  t.charged_in_call <- saved_charge;
  (match t.obs with
  | Some o -> Metrics.Registry.observe o.o_call_lat ~cpu (ops.costs.enoki_call + charged)
  | None -> ());
  (match t.profile with
  | Some p ->
    Profile.record_cell p (profile_cell t p k) ~sim_ns:(ops.costs.enoki_call + charged)
      ~wall_ns:(Profile.now_ns () - wall0)
  | None -> ());
  match t.call_budget with
  | Some budget when charged > budget ->
    t.overruns <- t.overruns + 1;
    (match t.obs with Some o -> Metrics.Registry.incr o.o_overruns ~cpu | None -> ());
    count_violation t "call_budget";
    emit t ~cpu (Trace.Event.Overrun { call = call_names.(k); charged; budget })
  | Some _ | None -> ()

(* The synchronous call path: read-lock, call the registered module, settle.
   [f] is a closed function of the packed module and the hook's arguments,
   hence a static value: a crossing allocates nothing.  Overheads are
   charged to the calling cpu's context, modelling the 100-150 ns per
   invocation the paper measures. *)
let cross t ~cpu k f a b c =
  let ops = ops_exn t in
  ops.charge ~cpu ops.costs.enoki_call;
  (match t.tracer with
  | Some tr -> Trace.Tracer.emit_msg_call tr ~ts:(ops.now ()) ~cpu ~call:k
  | None -> ());
  t.calls <- t.calls + 1;
  (match t.obs with
  | Some o ->
    Metrics.Registry.incr o.o_calls ~cpu;
    Metrics.Registry.incr (per_call_counter o k) ~cpu
  | None -> ());
  t.current_tid <- cpu;
  t.readers <- t.readers + 1;
  let saved_charge = t.charged_in_call in
  t.charged_in_call <- 0;
  let wall0 = match t.profile with Some _ -> Profile.now_ns () | None -> 0 in
  match f (packed_exn t) a b c with
  | r ->
    leave t ops ~cpu k saved_charge wall0;
    r
  | exception e ->
    leave t ops ~cpu k saved_charge wall0;
    raise e

(* The record tap, the only consumer of [Message] on the kernel path: each
   hook builds its call and reply inside its [Some r] branch, so nothing is
   built while recording is off. *)
let tap t r ~cpu call reply =
  let ops = ops_exn t in
  ops.charge ~cpu ops.costs.record_msg;
  Record.tap_call r ~tid:cpu call reply

(* ---------- scheduler-class hooks ---------- *)

let select_task_rq t (task : Kernsim.Task.t) ~waker_cpu =
  let allowed = match task.affinity with Some cpus -> cpus | None -> t.all_cpus in
  let cpu =
    cross t ~cpu:waker_cpu k_select
      (fun (Packed ((module S), st)) pid w allowed ->
        S.select_task_rq st ~pid ~waker_cpu:w ~allowed)
      task.pid waker_cpu allowed
  in
  (match t.record with
  | Some r ->
    tap t r ~cpu:waker_cpu (Select_task_rq { pid = task.pid; waker_cpu; allowed }) (R_int cpu)
  | None -> ());
  if cpu >= 0 && cpu < (ops_exn t).nr_cpus && Kernsim.Task.allowed_cpu task cpu then cpu
  else begin
    (* scheduler chose a cpu the task may not use; fall back *)
    count_violation t "bad_select_cpu";
    emit t ~cpu:waker_cpu (Trace.Event.Pnt_err { pid = task.pid; err = "bad_select_cpu" });
    match task.affinity with Some (c :: _) -> c | Some [] | None -> waker_cpu
  end

let task_new t (task : Kernsim.Task.t) ~cpu =
  let sched = mint t ~pid:task.pid ~cpu in
  cross t ~cpu k_new
    (fun (Packed ((module S), st)) (p : Kernsim.Task.t) sched () ->
      S.task_new st ~pid:p.pid ~runtime:p.sum_exec ~prio:p.nice ~sched)
    task sched ();
  match t.record with
  | Some r ->
    tap t r ~cpu
      (Task_new { pid = task.pid; runtime = task.sum_exec; prio = task.nice; sched })
      R_unit
  | None -> ()

let task_wakeup t (task : Kernsim.Task.t) ~cpu ~waker_cpu =
  let sched = mint t ~pid:task.pid ~cpu in
  cross t ~cpu:waker_cpu k_wakeup
    (fun (Packed ((module S), st)) (p : Kernsim.Task.t) waker_cpu sched ->
      S.task_wakeup st ~pid:p.pid ~runtime:p.sum_exec ~waker_cpu ~sched)
    task waker_cpu sched;
  match t.record with
  | Some r ->
    tap t r ~cpu:waker_cpu
      (Task_wakeup { pid = task.pid; runtime = task.sum_exec; waker_cpu; sched }) R_unit
  | None -> ()

let task_blocked t (task : Kernsim.Task.t) ~cpu =
  invalidate t ~pid:task.pid;
  cross t ~cpu k_blocked
    (fun (Packed ((module S), st)) (p : Kernsim.Task.t) cpu () ->
      S.task_blocked st ~pid:p.pid ~runtime:p.sum_exec ~cpu)
    task cpu ();
  match t.record with
  | Some r -> tap t r ~cpu (Task_blocked { pid = task.pid; runtime = task.sum_exec; cpu }) R_unit
  | None -> ()

let task_yield t (task : Kernsim.Task.t) ~cpu =
  let sched = mint t ~pid:task.pid ~cpu in
  cross t ~cpu k_yield
    (fun (Packed ((module S), st)) (p : Kernsim.Task.t) cpu sched ->
      S.task_yield st ~pid:p.pid ~runtime:p.sum_exec ~cpu ~sched)
    task cpu sched;
  match t.record with
  | Some r ->
    tap t r ~cpu (Task_yield { pid = task.pid; runtime = task.sum_exec; cpu; sched }) R_unit
  | None -> ()

let task_preempt t (task : Kernsim.Task.t) ~cpu =
  let sched = mint t ~pid:task.pid ~cpu in
  cross t ~cpu k_preempt
    (fun (Packed ((module S), st)) (p : Kernsim.Task.t) cpu sched ->
      S.task_preempt st ~pid:p.pid ~runtime:p.sum_exec ~cpu ~sched)
    task cpu sched;
  match t.record with
  | Some r ->
    tap t r ~cpu (Task_preempt { pid = task.pid; runtime = task.sum_exec; cpu; sched }) R_unit
  | None -> ()

let task_dead t (task : Kernsim.Task.t) ~cpu =
  forget_gen t task.pid;
  cross t ~cpu k_dead
    (fun (Packed ((module S), st)) pid () () -> S.task_dead st ~pid)
    task.pid () ();
  match t.record with Some r -> tap t r ~cpu (Task_dead { pid = task.pid }) R_unit | None -> ()

let task_departed t (task : Kernsim.Task.t) ~cpu =
  let held =
    cross t ~cpu k_departed
      (fun (Packed ((module S), st)) pid cpu () -> S.task_departed st ~pid ~cpu)
      task.pid cpu ()
  in
  (match t.record with
  | Some r -> tap t r ~cpu (Task_departed { pid = task.pid; cpu }) (R_sched_opt held)
  | None -> ());
  (* whatever token the scheduler held dies with the pid's table entry *)
  forget_gen t task.pid

let task_tick t ~cpu ~queued =
  cross t ~cpu k_tick (fun (Packed ((module S), st)) cpu queued () -> S.task_tick st ~cpu ~queued)
    cpu queued ();
  match t.record with Some r -> tap t r ~cpu (Task_tick { cpu; queued }) R_unit | None -> ()

(* A picked token failed validation (wrong core, stale or forged): hand
   ownership back via pnt_err, the recoverable path the Schedulable design
   exists for. *)
let reject_pick t ~cpu token err =
  let pid = Schedulable.pid token in
  count_violation t err;
  (* the event is built only for a tracer, so a rejection allocates nothing *)
  (match t.tracer with Some _ -> emit t ~cpu (Trace.Event.Pnt_err { pid; err }) | None -> ());
  cross t ~cpu k_pnt_err
    (fun (Packed ((module S), st)) cpu err tok ->
      S.pnt_err st ~cpu ~pid:(Schedulable.pid tok) ~err ~sched:tok)
    cpu err token;
  (match t.record with
  | Some r -> tap t r ~cpu (Pnt_err { cpu; pid; err; sched = token }) R_unit
  | None -> ());
  -1

(* Int-encoded for the machine's per-schedule hot path: a pid or -1. *)
let pick_next_task t ~cpu =
  let picked =
    cross t ~cpu k_pick
      (fun (Packed ((module S), st)) cpu () () ->
        S.pick_next_task st ~cpu ~curr:Schedulable.none ~curr_runtime:0)
      cpu () ()
  in
  (match t.record with
  | Some r ->
    tap t r ~cpu
      (Pick_next_task { cpu; curr = Schedulable.none; curr_runtime = 0 })
      (R_sched_opt picked)
  | None -> ());
  if Schedulable.is_none picked then -1
  else
    match token_fault t picked ~cpu with
    | "" -> (
      let pid = Schedulable.pid picked in
      (* the token checks out against our generation table; re-validate
         against the kernel's own task state before letting the pid reach
         the core scheduler, so a bogus reply can never crash the machine *)
      match (ops_exn t).find_task pid with
      | Some task when task.state = Kernsim.Task.Runnable && task.cpu = cpu ->
        consume t picked;
        invalidate t ~pid;
        pid
      | Some _ | None -> reject_pick t ~cpu picked "not_runnable")
    | err -> reject_pick t ~cpu picked err

let balance t ~cpu =
  let pid =
    cross t ~cpu k_balance (fun (Packed ((module S), st)) cpu () () -> S.balance st ~cpu) cpu () ()
  in
  (match t.record with Some r -> tap t r ~cpu (Balance { cpu }) (R_pid_opt pid) | None -> ());
  pid

let balance_err t (task : Kernsim.Task.t) ~cpu =
  cross t ~cpu k_balance_err
    (fun (Packed ((module S), st)) cpu pid () -> S.balance_err st ~cpu ~pid ~sched:Schedulable.none)
    cpu task.pid ();
  match t.record with
  | Some r -> tap t r ~cpu (Balance_err { cpu; pid = task.pid; sched = Schedulable.none }) R_unit
  | None -> ()

let migrate_task_rq t (task : Kernsim.Task.t) ~from_cpu ~to_cpu =
  let sched = mint t ~pid:task.pid ~cpu:to_cpu in
  let old =
    cross t ~cpu:to_cpu k_migrate
      (fun (Packed ((module S), st)) pid sched () -> S.migrate_task_rq st ~pid ~sched)
      task.pid sched ()
  in
  (match t.record with
  | Some r ->
    tap t r ~cpu:to_cpu (Migrate_task_rq { pid = task.pid; from_cpu; sched }) (R_sched_opt old)
  | None -> ());
  (* the scheduler returns the superseded token; consume whatever it gave *)
  consume t old

let task_prio_changed t (task : Kernsim.Task.t) =
  let cpu = task.cpu in
  cross t ~cpu k_prio
    (fun (Packed ((module S), st)) pid prio () -> S.task_prio_changed st ~pid ~prio)
    task.pid task.nice ();
  match t.record with
  | Some r -> tap t r ~cpu (Task_prio_changed { pid = task.pid; prio = task.nice }) R_unit
  | None -> ()

let task_affinity_changed t (task : Kernsim.Task.t) =
  let cpu = task.cpu in
  let allowed = match task.affinity with Some cpus -> cpus | None -> t.all_cpus in
  cross t ~cpu k_affinity
    (fun (Packed ((module S), st)) pid allowed () -> S.task_affinity_changed st ~pid ~allowed)
    task.pid allowed ();
  match t.record with
  | Some r -> tap t r ~cpu (Task_affinity_changed { pid = task.pid; allowed }) R_unit
  | None -> ()

(* User hints go through the shared ring, then Enoki-C synchronously drains
   it into parse_hint calls (the enter_queue protocol of §3.3). *)
let deliver_hint t (task : Kernsim.Task.t) hint =
  let cpu = task.cpu in
  if Ds.Ring_buffer.push t.hint_ring (task.pid, hint) then
    List.iter
      (fun (pid, hint) ->
        cross t ~cpu k_hint
          (fun (Packed ((module S), st)) pid hint () -> S.parse_hint st ~pid ~hint)
          pid hint ();
        match t.record with Some r -> tap t r ~cpu (Parse_hint { pid; hint }) R_unit | None -> ())
      (Ds.Ring_buffer.drain t.hint_ring)

(* ---------- registration ---------- *)

let make_ctx t (ops : Ops.kernel_ops) : Ctx.t =
  {
    nr_cpus = ops.nr_cpus;
    policy = t.policy;
    now = ops.now;
    set_timer = (fun ~cpu d -> ops.set_timer ~cpu d);
    cancel_timer = (fun ~cpu -> ops.cancel_timer ~cpu);
    resched = (fun ~cpu -> ops.resched_cpu cpu);
    send_user = (fun ~pid hint -> ops.send_user ~pid hint);
    charge =
      (fun ~cpu ns ->
        (* module compute time: account it on the core and against the
           per-call budget (the infinite-loop stand-in of the fault plan) *)
        t.charged_in_call <- t.charged_in_call + ns;
        ops.charge ~cpu ns);
    log = (fun _ -> ());
    registry = Option.map (fun o -> o.reg) t.obs;
    trace = (fun ~cpu kind -> emit t ~cpu kind);
    trace_packed = (fun ~cpu tag a b c -> emit_tag t ~cpu tag a b c);
  }

(* ---------- isolation: quarantine and fallback (ghOSt-style) ---------- *)

let fallback_name = "cfs-fallback"

let fallback_exn t =
  match t.fallback with
  | Some fb -> fb
  | None ->
    let fb = Kernsim.Cfs.factory () (ops_exn t) in
    t.fallback <- Some fb;
    fb

(* A module exception was caught at the dispatch boundary.  First panic
   flips the class into quarantine: instantiate the built-in CFS fallback,
   re-home the policy's runnable tasks into it from the kernel's own task
   list, charge the failover pause everywhere and kick every cpu.  [skip]
   is the pid the failed hook was about (-1 = none) — the caller
   re-delegates that hook to the fallback, which introduces the task
   without double-queueing it. *)
let quarantine t ~cpu ~skip ~call exn =
  let ops = ops_exn t in
  t.panics <- t.panics + 1;
  (match t.obs with Some o -> Metrics.Registry.incr o.o_panics ~cpu | None -> ());
  let reason = Printexc.to_string exn in
  emit t ~cpu (Trace.Event.Panic { call; reason });
  match t.quarantined with
  | Some _ -> fallback_exn t
  | None ->
    t.quarantined <- Some (reason, ops.now ());
    t.failovers <- t.failovers + 1;
    (match t.obs with Some o -> Metrics.Registry.incr o.o_failovers ~cpu | None -> ());
    t.blackout <- None;
    count_violation t "panic";
    emit t ~cpu (Trace.Event.Failover { fallback = fallback_name });
    let fb = fallback_exn t in
    (* Running tasks reach the fallback at their next deschedule and
       blocked ones at wakeup; CFS tolerates pids it has not seen *)
    List.iter
      (fun (task : Kernsim.Task.t) ->
        if task.state = Kernsim.Task.Runnable && task.pid <> skip then
          fb.task_new task ~cpu:task.cpu)
      (ops.live_tasks ~policy:t.policy);
    for c = 0 to ops.nr_cpus - 1 do
      ops.charge ~cpu:c ops.costs.failover;
      ops.resched_cpu c
    done;
    fb

(* The isolation boundary around one hook: when quarantined, route
   straight to the fallback; otherwise run the module path and turn
   anything it raises into quarantine + failover instead of letting it
   unwind the core scheduler.  [modul] and [fallback] are closed functions
   of the hook's arguments, like [cross]'s, so the boundary allocates
   nothing; [skip] is the pid the hook is about (-1 = none). *)
let isolated t ~cpu ~skip k modul (fallback : Ops.t -> _) a b c =
  match t.quarantined with
  | Some _ -> fallback (fallback_exn t) a b c
  | None -> (
    try modul t a b c with exn when t.isolate ->
      fallback (quarantine t ~cpu ~skip ~call:call_names.(k) exn) a b c)

let rec arm_record_drain t (ops : Ops.kernel_ops) r =
  ops.defer ~delay:(Kernsim.Time.us 100) (fun () ->
      Record.drain r;
      arm_record_drain t ops r)

let factory t : Kernsim.Sched_class.factory =
 fun ops ->
  if t.ops <> None then invalid_arg "Enoki_c: scheduler already registered";
  t.ops <- Some ops;
  t.all_cpus <- List.init ops.nr_cpus Fun.id;
  (* module load: construct the scheduler against the safe context *)
  Lock.reset_ids ();
  (match t.tracer with
  | Some tr ->
    Lock.set_trace_tap
      (Some
         (fun op ~lock_id ->
           match op with
           | Lock.Acquire ->
             Trace.Tracer.emit_lock_acquire tr ~ts:(ops.now ()) ~cpu:t.current_tid ~lock_id
           | Lock.Release ->
             Trace.Tracer.emit_lock_release tr ~ts:(ops.now ()) ~cpu:t.current_tid ~lock_id
           | Lock.Create -> ()))
  | None -> ());
  (match t.record with
  | Some r ->
    Lock.set_record_mode ~sink:(Record.tap_lock r) ~tid:(fun () -> t.current_tid);
    arm_record_drain t ops r
  | None -> ());
  let (module S : Sched_trait.S) = t.modul in
  let st = S.create (make_ctx t ops) in
  t.packed <- Some (Sched_trait.Packed ((module S), st));
  {
    Kernsim.Sched_class.name = "enoki:" ^ S.name;
    select_task_rq =
      (fun task ~waker_cpu ->
        isolated t ~cpu:waker_cpu ~skip:task.pid k_select
          (fun t task waker_cpu () -> select_task_rq t task ~waker_cpu)
          (fun fb task waker_cpu () -> fb.select_task_rq task ~waker_cpu)
          task waker_cpu ());
    task_new =
      (fun task ~cpu ->
        isolated t ~cpu ~skip:task.pid k_new
          (fun t task cpu () -> task_new t task ~cpu)
          (fun fb task cpu () -> fb.task_new task ~cpu)
          task cpu ());
    task_wakeup =
      (fun task ~cpu ~waker_cpu ->
        isolated t ~cpu ~skip:task.pid k_wakeup
          (fun t task cpu waker_cpu -> task_wakeup t task ~cpu ~waker_cpu)
          (fun fb task cpu waker_cpu -> fb.task_wakeup task ~cpu ~waker_cpu)
          task cpu waker_cpu);
    task_blocked =
      (fun task ~cpu ->
        isolated t ~cpu ~skip:task.pid k_blocked
          (fun t task cpu () -> task_blocked t task ~cpu)
          (fun fb task cpu () -> fb.task_blocked task ~cpu)
          task cpu ());
    task_yield =
      (fun task ~cpu ->
        isolated t ~cpu ~skip:task.pid k_yield
          (fun t task cpu () -> task_yield t task ~cpu)
          (fun fb task cpu () -> fb.task_yield task ~cpu)
          task cpu ());
    task_preempt =
      (fun task ~cpu ->
        isolated t ~cpu ~skip:task.pid k_preempt
          (fun t task cpu () -> task_preempt t task ~cpu)
          (fun fb task cpu () -> fb.task_preempt task ~cpu)
          task cpu ());
    task_dead =
      (fun task ~cpu ->
        isolated t ~cpu ~skip:task.pid k_dead
          (fun t task cpu () -> task_dead t task ~cpu)
          (fun fb task cpu () -> fb.task_dead task ~cpu)
          task cpu ());
    task_departed =
      (fun task ~cpu ->
        isolated t ~cpu ~skip:task.pid k_departed
          (fun t task cpu () -> task_departed t task ~cpu)
          (fun fb task cpu () -> fb.task_departed task ~cpu)
          task cpu ());
    task_tick =
      (fun ~cpu ~queued ->
        isolated t ~cpu ~skip:(-1) k_tick
          (fun t cpu queued () -> task_tick t ~cpu ~queued)
          (fun fb cpu queued () -> fb.task_tick ~cpu ~queued)
          cpu queued ());
    pick_next_task =
      (fun ~cpu ->
        let picked =
          isolated t ~cpu ~skip:(-1) k_pick
            (fun t cpu () () -> pick_next_task t ~cpu)
            (fun fb cpu () () -> fb.pick_next_task ~cpu)
            cpu () ()
        in
        (if picked >= 0 then
           match (t.quarantined, t.blackout) with
           | Some (_, since), None ->
             (* first successful dispatch after failover closes the blackout *)
             t.blackout <- Some (ops.now () - since)
           | _ -> ());
        picked);
    balance =
      (fun ~cpu ->
        isolated t ~cpu ~skip:(-1) k_balance
          (fun t cpu () () -> balance t ~cpu)
          (fun fb cpu () () -> fb.balance ~cpu) cpu ()
          ());
    balance_err =
      (fun task ~cpu ->
        isolated t ~cpu ~skip:task.pid k_balance_err
          (fun t task cpu () -> balance_err t task ~cpu)
          (fun fb task cpu () -> fb.balance_err task ~cpu)
          task cpu ());
    migrate_task_rq =
      (fun task ~from_cpu ~to_cpu ->
        isolated t ~cpu:to_cpu ~skip:task.pid k_migrate
          (fun t task from_cpu to_cpu -> migrate_task_rq t task ~from_cpu ~to_cpu)
          (fun fb task from_cpu to_cpu -> fb.migrate_task_rq task ~from_cpu ~to_cpu)
          task from_cpu to_cpu);
    task_prio_changed =
      (fun task ->
        isolated t ~cpu:task.cpu ~skip:task.pid k_prio
          (fun t task () () -> task_prio_changed t task)
          (fun fb task () () -> fb.task_prio_changed task)
          task () ());
    task_affinity_changed =
      (fun task ->
        isolated t ~cpu:task.cpu ~skip:task.pid k_affinity
          (fun t task () () -> task_affinity_changed t task)
          (fun fb task () () -> fb.task_affinity_changed task)
          task () ());
    deliver_hint =
      (fun task hint ->
        isolated t ~cpu:task.cpu ~skip:task.pid k_hint
          (fun t task hint () -> deliver_hint t task hint)
          (fun fb task hint () -> fb.deliver_hint task hint)
          task hint ());
  }

(* ---------- live upgrade (§3.2) ---------- *)

(* Rebuild the incoming module's world view from the kernel's own task
   list: introduce every runnable task of the policy with a fresh token.
   Running tasks reach the module at their next deschedule and blocked
   ones at wakeup, mirroring how the machine defers policy changes for
   running tasks. *)
let readopt t (ops : Ops.kernel_ops) =
  List.iter
    (fun (task : Kernsim.Task.t) ->
      if task.state = Kernsim.Task.Runnable then task_new t task ~cpu:task.cpu)
    (ops.live_tasks ~policy:t.policy)

let upgrade t (module New : Sched_trait.S) =
  match t.ops with
  | None -> Error (Invalid_argument "Enoki_c: not registered")
  | Some ops -> (
    let (Sched_trait.Packed ((module Old), old_st)) = packed_exn t in
    (* acquire the per-scheduler lock in write mode: in the simulator all
       calls are instantaneous, so quiescing is immediate *)
    assert (t.readers = 0);
    let tasks_carried = t.ngens in
    let was_quarantined = t.quarantined <> None in
    match
      (* prepare in the old version, init in the new one, swap the pointer.
         A quarantined module's exported state is not trusted — the Rex
         argument: recover from kernel ground truth, not from the crashed
         extension's heap — and a panic inside prepare itself degrades to
         a stateless handoff instead of aborting the upgrade. *)
      let transfer =
        if was_quarantined then None
        else
          try Old.reregister_prepare old_st with
          | Upgrade.Incompatible _ as e -> raise e
          | _ -> None
      in
      let new_st = New.reregister_init (make_ctx t ops) transfer in
      (transfer, new_st)
    with
    | transfer, new_st ->
      t.history <- (module Old : Sched_trait.S) :: t.history;
      t.packed <- Some (Sched_trait.Packed ((module New), new_st));
      Array.fill t.prof_cells 0 (Array.length t.prof_cells) None;
      (* the write lock was held while both reregister calls ran; model
         that blackout by delaying every cpu's next dispatch *)
      let pause =
        ops.costs.upgrade_base
        + (ops.costs.upgrade_per_cpu * ops.nr_cpus)
        + (ops.costs.upgrade_per_task * tasks_carried)
      in
      for cpu = 0 to ops.nr_cpus - 1 do
        ops.charge ~cpu pause
      done;
      let stats = { Upgrade.pause; transferred = Option.is_some transfer; tasks_carried } in
      t.upgrades <- stats :: t.upgrades;
      (* leaving quarantine (or a stateless handoff): discard the fallback
         instance and re-introduce the kernel's tasks to the new module *)
      if was_quarantined || Option.is_none transfer then begin
        t.quarantined <- None;
        t.fallback <- None;
        (try readopt t ops
         with exn ->
           (* the incoming module panicked during re-adoption *)
           if t.isolate then ignore (quarantine t ~cpu:0 ~skip:(-1) ~call:"reregister_init" exn)
           else raise exn);
        for cpu = 0 to ops.nr_cpus - 1 do
          ops.resched_cpu cpu
        done
      end;
      Ok stats
    | exception e ->
      (* [Incompatible] or any panic out of the new module's init: the old
         version stays registered, the write lock is released *)
      Error e)

(* The watchdog's recovery.  It re-enters the scheduler, so it is deferred
   out of the emitting dispatch to the next simulator step.  There it
   re-registers the previous version, after which both the failed version
   and its predecessor leave the history (the predecessor is current
   again); before any upgrade it re-registers the last known good
   [pristine] module.  [k] receives the outcome. *)
let restore t ~pristine k =
  (ops_exn t).defer ~delay:0 (fun () ->
      k
        (match t.history with
        | [] -> upgrade t pristine
        | m :: rest -> (
          match upgrade t m with
          | Ok _ as ok ->
            t.history <- rest;
            ok
          | Error _ as e -> e)))

(* ---------- fault-isolation counters ---------- *)

(* declared last: the field labels would otherwise shadow [t]'s *)
type failover_stats = {
  panics : int;
  failovers : int;
  overruns : int;
  quarantined : (string * Kernsim.Time.ns) option;
  blackout : Kernsim.Time.ns option;
}

let failover_stats (t : t) =
  {
    panics = t.panics;
    failovers = t.failovers;
    overruns = t.overruns;
    quarantined = t.quarantined;
    blackout = t.blackout;
  }

module Private = struct
  let hints_dropped = hints_dropped
end
