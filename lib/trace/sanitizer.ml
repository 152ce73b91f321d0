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
  lock_stacks : int list array; (* per logical tid, held lock ids *)
  recent : Event.t Ds.Ring_buffer.t; (* trailing context, newest kept *)
  mutable violations : violation list; (* newest first *)
  mutable events_seen : int;
}

let create ?(config = default_config) ~nr_cpus () =
  {
    config;
    nr_cpus;
    running = Hashtbl.create 64;
    current = Array.make nr_cpus (-1);
    runnable = Hashtbl.create 64;
    affinity = Hashtbl.create 64;
    starved_reported = Hashtbl.create 16;
    wc_reported = Array.make nr_cpus false;
    lock_stacks = Array.make nr_cpus [];
    recent = Ds.Ring_buffer.create ~capacity:(max 1 config.window);
    violations = [];
    events_seen = 0;
  }

let violate t ~at ~cpu vkind detail =
  if not (List.mem vkind t.config.disabled) then begin
    (* snapshot without consuming: drain then re-push the trailing window *)
    let ctx = Ds.Ring_buffer.drain t.recent in
    List.iter (fun ev -> ignore (Ds.Ring_buffer.push t.recent ev)) ctx;
    t.violations <- { at; cpu; vkind; detail; window = ctx } :: t.violations
  end

let allowed t pid cpu =
  match Hashtbl.find_opt t.affinity pid with
  | Some (Some cpus) -> List.mem cpu cpus
  | Some None | None -> true

let set_runnable t pid ts = if not (Hashtbl.mem t.runnable pid) then Hashtbl.replace t.runnable pid ts

let clear_runnable t pid =
  Hashtbl.remove t.runnable pid;
  Hashtbl.remove t.starved_reported pid

let stop_running t pid =
  Hashtbl.remove t.running pid;
  (* the pid may have been dispatched elsewhere per our bookkeeping if a
     double-run slipped through; clear every slot that names it, not just
     the event's cpu *)
  for c = 0 to Array.length t.current - 1 do
    if t.current.(c) = pid then t.current.(c) <- -1
  done

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

let check_work_conservation t now =
  for cpu = 0 to t.nr_cpus - 1 do
    if t.current.(cpu) < 0 then begin
      if not t.wc_reported.(cpu) then begin
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

let feed t (ev : Event.t) =
  t.events_seen <- t.events_seen + 1;
  (* trailing window: keep the newest [config.window] events *)
  if Ds.Ring_buffer.is_full t.recent then ignore (Ds.Ring_buffer.pop t.recent);
  ignore (Ds.Ring_buffer.push t.recent ev);
  let cpu = ev.cpu in
  match ev.kind with
  | Event.Wakeup { pid; affinity; _ } ->
    Hashtbl.replace t.affinity pid affinity;
    set_runnable t pid ev.ts
  | Event.Dispatch { pid } ->
    (match Hashtbl.find_opt t.running pid with
    | Some other when other <> cpu ->
      violate t ~at:ev.ts ~cpu Double_run
        (Printf.sprintf "pid %d dispatched on cpu %d while still running on cpu %d" pid cpu
           other)
    | Some _ | None -> ());
    Hashtbl.replace t.running pid cpu;
    t.current.(cpu) <- pid;
    t.wc_reported.(cpu) <- false;
    clear_runnable t pid
  | Event.Preempt { pid } | Event.Yield { pid } ->
    stop_running t pid;
    set_runnable t pid ev.ts
  | Event.Block { pid } ->
    stop_running t pid;
    clear_runnable t pid
  | Event.Exit { pid } ->
    stop_running t pid;
    clear_runnable t pid;
    Hashtbl.remove t.affinity pid
  | Event.Idle | Event.Sched_switch { next = None; _ } ->
    let pid = t.current.(cpu) in
    if pid >= 0 then stop_running t pid
  | Event.Sched_switch _ | Event.Migrate _ -> ()
  | Event.Tick ->
    (* invariants that need the passage of time are evaluated on the
       periodic tick; run the global scans once per tick wave (cpu 0) *)
    if cpu = 0 then begin
      check_starvation t ev.ts;
      check_work_conservation t ev.ts
    end
  | Event.Pnt_err { pid; err } ->
    violate t ~at:ev.ts ~cpu Token_discipline
      (Printf.sprintf "Schedulable token for pid %d rejected on cpu %d: %s" pid cpu err)
  | Event.Lock_acquire { lock_id } ->
    if cpu >= 0 && cpu < t.nr_cpus then t.lock_stacks.(cpu) <- lock_id :: t.lock_stacks.(cpu)
  | Event.Lock_release { lock_id } -> (
    if cpu >= 0 && cpu < t.nr_cpus then
      match t.lock_stacks.(cpu) with
      | top :: rest when top = lock_id -> t.lock_stacks.(cpu) <- rest
      | top :: _ ->
        violate t ~at:ev.ts ~cpu Lock_imbalance
          (Printf.sprintf "cpu %d released lock %d but lock %d was acquired last" cpu lock_id
             top)
      | [] ->
        violate t ~at:ev.ts ~cpu Lock_imbalance
          (Printf.sprintf "cpu %d released lock %d it never acquired" cpu lock_id))
  | Event.Msg_call _ -> ()
  | Event.Panic _ | Event.Failover _ | Event.Overrun _ | Event.Watchdog_fire _ ->
    (* fault-subsystem markers; the watchdog consumes these, the invariant
       checks above keep deriving state from the scheduling events alone *)
    ()
  | Event.Metric_flush _ | Event.Dsq_insert _ | Event.Dsq_consume _ | Event.Fleet_op _
  | Event.Req_enqueue _ | Event.Req_take _ | Event.Req_done _ ->
    (* observability markers (metrics sampler, dispatch-queue movements,
       fleet orchestration, request anatomy): never part of any scheduling
       invariant *)
    ()

let attach t tracer = Tracer.subscribe tracer (feed t)

let violations t = List.rev t.violations

let violations_of_kind t k = List.filter (fun v -> v.vkind = k) (violations t)

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
