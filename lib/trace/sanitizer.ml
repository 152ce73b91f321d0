type violation_kind =
  | Double_run
  | Starvation
  | Work_conservation
  | Token_discipline
  | Lock_imbalance

let kind_name = function
  | Double_run -> "double_run"
  | Starvation -> "starvation"
  | Work_conservation -> "work_conservation"
  | Token_discipline -> "token_discipline"
  | Lock_imbalance -> "lock_imbalance"

type violation = {
  at : int;
  cpu : int;
  vkind : violation_kind;
  detail : string;
  window : Event.t list;
}

type config = {
  starvation_bound : int;
  wc_grace : int;
  window : int;
  disabled : violation_kind list;
}

let default_config =
  {
    (* a runnable task waiting 100ms of simulated time is starved *)
    starvation_bound = 100_000_000;
    (* a cpu idling 5ms while an eligible task waits breaks work conservation *)
    wc_grace = 5_000_000;
    window = 32;
    (* schedulers that renounce an invariant by design (a core arbiter is
       not work-conserving) list the corresponding kinds here *)
    disabled = [];
  }

type t = {
  config : config;
  nr_cpus : int;
  running : (int, int) Hashtbl.t; (* pid -> cpu it is dispatched on *)
  current : int array; (* per-cpu dispatched pid, -1 when idle *)
  runnable : (int, int) Hashtbl.t; (* pid -> runnable-since timestamp *)
  affinity : (int, int list option) Hashtbl.t;
  starved_reported : (int, unit) Hashtbl.t; (* once per runnable episode *)
  wc_reported : bool array; (* once per idle episode, per cpu *)
  (* per logical tid, held lock ids: stack [c] holds [lock_depth.(c)] ids,
     the top last *)
  lock_stacks : int array array;
  lock_depth : int array;
  recent : Slots.t; (* trailing context, newest kept, packed like the tracer's rings *)
  mutable next : int; (* the window slot the next event goes to *)
  counts : int array; (* violations recorded, by [kind_index] *)
  (* a dispatch found its pid running on another cpu, so a pid may sit in
     two [current] slots: [stop_running] scans them all from then on *)
  mutable double_ran : bool;
  mutable violations : violation list; (* newest first *)
  mutable events_seen : int;
}

let kind_index = function
  | Double_run -> 0
  | Starvation -> 1
  | Work_conservation -> 2
  | Token_discipline -> 3
  | Lock_imbalance -> 4

let create ?(config = default_config) ~nr_cpus () =
  let cap = max 1 config.window in
  {
    config;
    nr_cpus;
    running = Hashtbl.create 64;
    current = Array.make nr_cpus (-1);
    runnable = Hashtbl.create 64;
    affinity = Hashtbl.create 64;
    starved_reported = Hashtbl.create 16;
    wc_reported = Array.make nr_cpus false;
    lock_stacks = Array.init nr_cpus (fun _ -> Array.make 8 0);
    lock_depth = Array.make nr_cpus 0;
    recent = Slots.create cap;
    next = 0;
    counts = Array.make 5 0;
    double_ran = false;
    violations = [];
    events_seen = 0;
  }

(* the newest [capacity] events, oldest first *)
let window t =
  let w = t.recent in
  let cap = Slots.capacity w in
  let rec go acc k i =
    if k = 0 then acc
    else
      let i = if i = 0 then cap - 1 else i - 1 in
      go (Slots.get w i :: acc) (k - 1) i
  in
  go [] (min t.events_seen cap) t.next

let violate t ~at ~cpu vkind detail =
  if not (List.mem vkind t.config.disabled) then begin
    let k = kind_index vkind in
    t.counts.(k) <- t.counts.(k) + 1;
    t.violations <- { at; cpu; vkind; detail; window = window t } :: t.violations
  end

let allowed t pid cpu =
  match Hashtbl.find_opt t.affinity pid with
  | Some (Some cpus) -> List.mem cpu cpus
  | Some None | None -> true

let set_runnable t pid ts = if not (Hashtbl.mem t.runnable pid) then Hashtbl.replace t.runnable pid ts

let clear_runnable t pid =
  Hashtbl.remove t.runnable pid;
  Hashtbl.remove t.starved_reported pid

(* Until a double run, a [current] slot names a pid only on the cpu
   [running] maps it to, so that slot is the one to clear.  After one, the
   pid may also sit on the cpu it was dispatched on first: clear every slot
   that names it, not just the one [running] names. *)
let stop_running t pid =
  if t.double_ran then begin
    Hashtbl.remove t.running pid;
    for c = 0 to Array.length t.current - 1 do
      if t.current.(c) = pid then t.current.(c) <- -1
    done
  end
  else
    match Hashtbl.find t.running pid with
    | cpu ->
      Hashtbl.remove t.running pid;
      if t.current.(cpu) = pid then t.current.(cpu) <- -1
    | exception Not_found -> ()

let check_starvation t now =
  Hashtbl.iter
    (fun pid since ->
      if now - since > t.config.starvation_bound && not (Hashtbl.mem t.starved_reported pid)
      then begin
        Hashtbl.replace t.starved_reported pid ();
        violate t ~at:now ~cpu:(-1) Starvation
          (Printf.sprintf "pid %d runnable for %dns (bound %dns) without being dispatched" pid
             (now - since) t.config.starvation_bound)
      end)
    t.runnable

(* [waited]: the longest any runnable task has waited; while it is within
   the grace, no idle cpu has a task to report *)
let check_work_conservation t now ~waited =
  for cpu = 0 to t.nr_cpus - 1 do
    if t.current.(cpu) < 0 then begin
      if (not t.wc_reported.(cpu)) && waited > t.config.wc_grace then begin
        let waiting =
          Hashtbl.fold
            (fun pid since acc ->
              match acc with
              | Some _ -> acc
              | None ->
                if now - since > t.config.wc_grace && allowed t pid cpu then Some (pid, since)
                else None)
            t.runnable None
        in
        match waiting with
        | Some (pid, since) ->
          t.wc_reported.(cpu) <- true;
          violate t ~at:now ~cpu Work_conservation
            (Printf.sprintf "cpu %d idle while pid %d has been runnable for %dns" cpu pid
               (now - since))
        | None -> ()
      end
    end
    else t.wc_reported.(cpu) <- false
  done

let remember t ~ts ~cpu tag a b c cold =
  let i = t.next in
  t.next <- (if i + 1 = Slots.capacity t.recent then 0 else i + 1);
  Slots.set t.recent i ~ts ~cpu tag a b c cold

let lock_acquire t ~cpu lock_id =
  if cpu >= 0 && cpu < t.nr_cpus then begin
    let d = t.lock_depth.(cpu) in
    let stack = t.lock_stacks.(cpu) in
    if d = Array.length stack then begin
      let bigger = Array.make (2 * d) 0 in
      Array.blit stack 0 bigger 0 d;
      t.lock_stacks.(cpu) <- bigger
    end;
    t.lock_stacks.(cpu).(d) <- lock_id;
    t.lock_depth.(cpu) <- d + 1
  end

let lock_release t ~ts ~cpu lock_id =
  if cpu >= 0 && cpu < t.nr_cpus then begin
    let d = t.lock_depth.(cpu) in
    if d = 0 then
      violate t ~at:ts ~cpu Lock_imbalance
        (Printf.sprintf "cpu %d released lock %d it never acquired" cpu lock_id)
    else
      let top = t.lock_stacks.(cpu).(d - 1) in
      if top = lock_id then t.lock_depth.(cpu) <- d - 1
      else
        violate t ~at:ts ~cpu Lock_imbalance
          (Printf.sprintf "cpu %d released lock %d but lock %d was acquired last" cpu lock_id
             top)
  end

(* The one checker, on packed events (see [Tracer.subscriber]). *)
let step t ~ts ~cpu tag pid b c cold =
  (* trailing window: keep the newest [config.window] events *)
  remember t ~ts ~cpu tag pid b c cold;
  t.events_seen <- t.events_seen + 1;
  match (tag : Event.tag) with
  | T_wakeup ->
    Hashtbl.replace t.affinity pid None;
    set_runnable t pid ts
  | T_dispatch ->
    (match Hashtbl.find t.running pid with
    | other when other <> cpu ->
      t.double_ran <- true;
      violate t ~at:ts ~cpu Double_run
        (Printf.sprintf "pid %d dispatched on cpu %d while still running on cpu %d" pid cpu
           other)
    | _ | (exception Not_found) -> ());
    Hashtbl.replace t.running pid cpu;
    t.current.(cpu) <- pid;
    t.wc_reported.(cpu) <- false;
    clear_runnable t pid
  | T_preempt | T_yield ->
    stop_running t pid;
    set_runnable t pid ts
  | T_block ->
    stop_running t pid;
    clear_runnable t pid
  | T_exit ->
    stop_running t pid;
    clear_runnable t pid;
    Hashtbl.remove t.affinity pid
  | T_idle ->
    let pid = t.current.(cpu) in
    if pid >= 0 then stop_running t pid
  | T_switch ->
    (* [b] is the next task, -1 when the cpu goes idle *)
    if b < 0 then begin
      let pid = t.current.(cpu) in
      if pid >= 0 then stop_running t pid
    end
  | T_migrate | T_msg_call | T_dsq_insert | T_dsq_consume -> ()
  | T_tick ->
    (* invariants that need the passage of time are evaluated on the
       periodic tick; run the global scans once per tick wave (cpu 0) *)
    if cpu = 0 then begin
      let waited = Hashtbl.fold (fun _ since acc -> max acc (ts - since)) t.runnable 0 in
      if waited > t.config.starvation_bound then check_starvation t ts;
      check_work_conservation t ts ~waited
    end
  | T_lock_acquire -> lock_acquire t ~cpu pid
  | T_lock_release -> lock_release t ~ts ~cpu pid
  | T_cold -> (
    match cold with
    | Event.Wakeup { pid; affinity; _ } ->
      Hashtbl.replace t.affinity pid affinity;
      set_runnable t pid ts
    | Event.Pnt_err { pid; err } ->
      violate t ~at:ts ~cpu Token_discipline
        (Printf.sprintf "Schedulable token for pid %d rejected on cpu %d: %s" pid cpu err)
    | Event.Panic _ | Event.Failover _ | Event.Overrun _ | Event.Watchdog_fire _ ->
      (* fault-subsystem markers; the watchdog consumes these, the
         invariant checks above keep deriving state from the scheduling
         events alone *)
      ()
    | Event.Metric_flush _ | Event.Dsq_insert _ | Event.Dsq_consume _ | Event.Fleet_op _
    | Event.Req_enqueue _ | Event.Req_take _ | Event.Req_done _ ->
      (* observability markers (metrics sampler, dispatch-queue movements,
         fleet orchestration, request anatomy): never part of any
         scheduling invariant *)
      ()
    | Event.Msg_call _ -> (* a call name outside [Event.call_names] *) ()
    | Event.Sched_switch _ | Event.Dispatch _ | Event.Preempt _ | Event.Yield _ | Event.Block _
    | Event.Exit _ | Event.Migrate _ | Event.Tick | Event.Idle | Event.Lock_acquire _
    | Event.Lock_release _ ->
      (* the other packed kinds never arrive cold *)
      ())

let feed t (ev : Event.t) =
  Event.pack ev.kind (fun tag a b c kind -> step t ~ts:ev.ts ~cpu:ev.cpu tag a b c kind)

let attach t tracer =
  if Tracer.nr_cpus tracer > t.nr_cpus then
    invalid_arg
      (Printf.sprintf "Sanitizer.attach: the tracer has %d cpus, the sanitizer only %d"
         (Tracer.nr_cpus tracer) t.nr_cpus);
  Tracer.subscribe tracer (step t)

let violations t = List.rev t.violations

let count_of_kind t k = t.counts.(kind_index k)

let ok t = t.violations = []

let events_seen t = t.events_seen

let pp_violation fmt v =
  Format.fprintf fmt "%s at t=%dns%s: %s" (kind_name v.vkind) v.at
    (if v.cpu >= 0 then Printf.sprintf " [cpu %d]" v.cpu else "")
    v.detail;
  if v.window <> [] then begin
    Format.fprintf fmt "@,  trailing events:";
    List.iter (fun ev -> Format.fprintf fmt "@,    %s" (Event.to_string ev)) v.window
  end

(* a fault-injection storm can rack up tens of thousands of violations;
   print the first few in full and summarise the rest *)
let max_detailed = 20

let pp_report fmt t =
  let vs = violations t in
  let n = List.length vs in
  Format.fprintf fmt "@[<v>sanitizer: %d events checked, %d violation%s" t.events_seen n
    (if n = 1 then "" else "s");
  List.iteri
    (fun i v -> if i < max_detailed then Format.fprintf fmt "@,%a" pp_violation v)
    vs;
  if n > max_detailed then
    Format.fprintf fmt "@,... and %d more (first %d shown)" (n - max_detailed) max_detailed;
  Format.fprintf fmt "@]"

let report_string t = Format.asprintf "%a" pp_report t

module Private = struct
  let kind_name = kind_name

  let feed = feed

  let current t ~cpu = t.current.(cpu)
end
