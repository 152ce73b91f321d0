(* enoki_sim: command-line driver for the simulator.

   Runs a (scheduler x workload) combination, optionally recording the
   scheduler's message log; replays a recorded log, or live-upgrades
   mid-run.
   The --sched vocabulary comes from Schedulers.Registry (run
   `enoki_sim run --help` for the current list).

     enoki_sim run --sched wfq --workload pipe
     enoki_sim run --sched shinjuku --workload rocksdb --load 60
     enoki_sim run --sched scx-prio-dq --workload schbench --sanitize
     enoki_sim run --sched wfq --workload pipe --record /tmp/wfq.rec
     enoki_sim replay --sched wfq --log /tmp/wfq.rec
     enoki_sim upgrade --sched scx-simple --workload schbench *)

open Cmdliner

(* the registry is the single source of truth: names, help text and the
   bad-name error all derive from it *)
let sched_conv =
  let parse s =
    match Schedulers.Registry.find s with
    | Some e -> Ok e
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown scheduler %S (expected one of: %s)" s
             (String.concat ", " Schedulers.Registry.names)))
  in
  Arg.conv
    (parse, fun fmt (e : Schedulers.Registry.entry) -> Format.pp_print_string fmt e.name)

let kind_of_sched = Workloads.Setup.of_registry

let module_of_sched = Schedulers.Registry.enoki_module

(* "an Enoki scheduler (fifo/wfq/...)" for record/replay/upgrade errors *)
let enoki_scheds_hint =
  Printf.sprintf "an Enoki scheduler (%s)"
    (String.concat "/" Schedulers.Registry.enoki_names)

(* A flag value the simulator cannot be built from (say [--cores 0])
   reaches the constructor it configures, which raises [Invalid_argument]:
   report it in one line and exit 2 instead of dying on an uncaught
   exception.  [prefix] narrows the catch to the messages of one
   constructor when [f] does more than validate flags. *)
let checked ?(prefix = "") f =
  try f ()
  with Invalid_argument msg when String.starts_with ~prefix msg ->
    Printf.eprintf "enoki_sim: %s\n" msg;
    exit 2

(* A flag value outside the range [cmd] can run with: one line, exit 2. *)
let usage_error cmd fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "enoki_sim: %s: %s\n" cmd msg;
      exit 2)
    fmt

(* [--load] is the rate of an open-loop arrival process: one that is not a
   positive number cannot be simulated. *)
let check_load cmd load =
  if not (Float.is_finite load && load > 0.0) then
    usage_error cmd "--load must be a positive number of kreq/s (got %g)" load

let usage_exits =
  Cmd.Exit.info 2 ~doc:"on a flag value the command cannot run with (e.g. $(b,--cores) 0)."
  :: Cmd.Exit.defaults

type workload = Pipe | Schbench | Rocksdb | Memcached

let workload_conv =
  Arg.enum
    [ ("pipe", Pipe); ("schbench", Schbench); ("rocksdb", Rocksdb); ("memcached", Memcached) ]

let sched_arg =
  let default =
    match Schedulers.Registry.find "wfq" with
    | Some e -> e
    | None -> List.hd Schedulers.Registry.all
  in
  Arg.(
    value & opt sched_conv default
    & info [ "sched"; "s" ] ~docv:"SCHED"
        ~doc:
          (Printf.sprintf "Scheduler to run: %s."
             (String.concat ", "
                (List.map (Printf.sprintf "$(b,%s)") Schedulers.Registry.names))))

let workload_arg =
  Arg.(
    value
    & opt workload_conv Pipe
    & info [ "workload"; "w" ] ~docv:"WORKLOAD" ~doc:"Workload to drive the machine with.")

let load_arg =
  Arg.(
    value & opt float 40.0
    & info [ "load" ] ~docv:"KREQS" ~doc:"Offered load in thousand requests/s (server workloads).")

let cores_arg =
  Arg.(value & opt int 8 & info [ "cores" ] ~docv:"N" ~doc:"Number of simulated cores (8 or 80).")

let topology_of_cores = function
  | 80 -> Kernsim.Topology.two_socket
  | 8 -> Kernsim.Topology.one_socket
  | n -> Kernsim.Topology.create ~cores:n ~cores_per_llc:n ~cores_per_node:n

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"PATH" ~doc:"Write a schedtrace of the run to $(docv).")

let trace_format_conv =
  Arg.conv
    ( (fun s ->
        match Trace.Export.format_of_string s with
        | Some f -> Ok f
        | None -> Error (`Msg (Printf.sprintf "unknown trace format %S (chrome|ftrace)" s))),
      fun fmt f -> Format.pp_print_string fmt (Trace.Export.format_to_string f) )

let trace_format_arg =
  Arg.(
    value
    & opt trace_format_conv Trace.Export.Chrome
    & info [ "trace-format" ] ~docv:"FORMAT"
        ~doc:
          "Trace output format: $(b,chrome) (trace-event JSON, loadable in chrome://tracing \
           or Perfetto) or $(b,ftrace) (text).")

let sanitize_arg =
  Arg.(
    value & flag
    & info [ "sanitize" ]
        ~doc:
          "Check scheduling invariants online (no double-run, no starvation, work \
           conservation, Schedulable token discipline, lock pairing) and report violations.")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Workload PRNG seed.  Defaults to each workload's canonical seed; the effective \
           seed is printed so any run can be reproduced from its output.")

let fault_plan_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-plan" ] ~docv:"SPEC"
        ~doc:
          "Inject faults into the scheduler module: a preset ($(b,panic), $(b,wrong-reply), \
           $(b,bad-select), $(b,latency), $(b,wedge), $(b,chaos)) or a rule spec like \
           $(b,panic@pick_next_task:p=0.01,after=1000).  Requires an Enoki scheduler.")

let fault_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "fault-seed" ] ~docv:"N"
        ~doc:"Seed for the fault injector's PRNG; equal seeds reproduce the same faults.")

let call_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "call-budget" ] ~docv:"NS"
        ~doc:
          "Simulated-time budget per scheduler invocation; overruns are counted, traced, \
           and feed the watchdog (the wedged-module detector).")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"PATH"
        ~doc:
          "Attach the metrics registry and write it to $(docv) at the end of the run.  The \
           format follows the extension: $(b,.prom)/$(b,.txt) Prometheus text exposition, \
           $(b,.csv) the sampled time series, anything else a JSON summary.")

let metrics_interval_arg =
  Arg.(
    value
    & opt int Metrics.Sampler.default_interval
    & info [ "metrics-interval" ] ~docv:"NS"
        ~doc:
          "Simulated nanoseconds between metric samples (default 10ms).  Each tick snapshots \
           every registry metric and emits a $(b,metric_flush) trace event.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Profile the Enoki-C dispatch boundary: per-callback crossing counts and simulated \
           ns, and host wall-clock ns per call timed on one crossing in 64, printed as a table \
           after the run.")

let watchdog_arg =
  Arg.(
    value & flag
    & info [ "watchdog" ]
        ~doc:
          "Arm the recovery watchdog: on panic bursts, call-budget overruns or sanitizer \
           starvation it live-upgrades back to the last-known-good scheduler version.")

(* Exit codes: 2 for a log that cannot be read or is not a well-formed
   record log (or a non-Enoki --sched), 3 for an incomplete (dropped-events)
   log, 5 for a divergent replay. *)
let replay_exits =
  Cmd.Exit.info 2
    ~doc:
      "on a missing, unreadable or malformed record log, or a $(b,--sched) that is not an \
       Enoki scheduler."
  :: Cmd.Exit.info 3
       ~doc:"on a log whose trailer records ring-overrun drops (see $(b,--allow-drops))."
  :: Cmd.Exit.info 5 ~doc:"on a replayed reply that diverges from the recorded one."
  :: Cmd.Exit.defaults

let do_replay (module S : Enoki.Sched_trait.S) ~path ~allow_drops ~bisect ~window =
  let contents =
    try Enoki.Record.load_file ~path
    with Sys_error msg ->
      Printf.eprintf "enoki_sim: cannot read record log: %s\n" msg;
      exit 2
  in
  let info = Enoki.Replay.info contents in
  if info.Enoki.Replay.truncated then
    print_endline "note: log is cut off mid-frame; replaying the complete prefix";
  (match info.Enoki.Replay.dropped with
  | Some d when d > 0 ->
    Printf.printf "WARNING: recording dropped %d events to ring overrun\n" d
  | _ -> ());
  match Enoki.Replay.run ~allow_drops (module S) ~log:contents with
  | exception Enoki.Replay.Incomplete_log { dropped } ->
    Printf.eprintf
      "enoki_sim: refusing to replay an incomplete log: %d events were dropped during \
       recording, so divergences would be meaningless (pass --allow-drops to force)\n"
      dropped;
    exit 3
  | report ->
    Format.printf "%a@." Enoki.Replay.pp_report report;
    if report.Enoki.Replay.mismatches <> [] then begin
      (if bisect then
         match Enoki.Replay.bisect ~window (module S) ~log:contents with
         | None -> print_endline "bisect: full log diverges but no minimal prefix found"
         | Some d ->
           Printf.printf "bisect: minimal failing prefix is %d entries\n" d.failing_prefix;
           Printf.printf "first divergent call at log position %d: %s\n" d.seq d.detail;
           List.iter
             (fun e ->
               let seq =
                 match e with
                 | Enoki.Replay.Call { seq; _ } | Enoki.Replay.Lock_event { seq; _ } -> seq
               in
               Printf.printf "  %c %5d: %s\n"
                 (if seq = d.seq then '>' else ' ')
                 seq (Enoki.Replay.entry_line e))
             d.context);
      exit 5
    end

let print_summary (b : Workloads.Setup.built) =
  let mets = Kernsim.Machine.metrics b.machine in
  Printf.printf "schedules: %d, context switches: %d, migrations: %d\n"
    (Kernsim.Accounting.schedules mets)
    (Kernsim.Accounting.context_switches mets)
    (Kernsim.Accounting.migrations mets);
  Report.kv (Workloads.Setup.enoki_summary b)

(* only the server workloads read [--load] *)
let check_workload_load cmd workload load =
  match workload with Rocksdb | Memcached -> check_load cmd load | Pipe | Schbench -> ()

let run_workload (b : Workloads.Setup.built) workload ~load ~seed =
  match workload with
  | Pipe ->
    (* sched-pipe is closed-loop and PRNG-free; no seed to report *)
    let r = Workloads.Pipe_bench.run b () in
    Printf.printf "sched pipe: %.2f us/wakeup over %d wakeups (completed: %b)\n" r.us_per_wakeup
      r.wakeups r.completed
  | Schbench ->
    let p = Workloads.Schbench.default_params ?seed () in
    Printf.printf "seed: %d\n" p.Workloads.Schbench.seed;
    let r = Workloads.Schbench.run b p in
    Printf.printf "schbench: wakeup latency p50 %s, p99 %s (%d samples)\n"
      (Kernsim.Time.to_string r.p50) (Kernsim.Time.to_string r.p99) r.samples
  | Rocksdb ->
    let p = Workloads.Rocksdb.default_params ?seed ~load_kreqs:load ~with_batch:false () in
    Printf.printf "seed: %d\n" p.Workloads.Rocksdb.seed;
    let r = Workloads.Rocksdb.run b p in
    Printf.printf "rocksdb @ %.0fk req/s: achieved %.1fk, p50 %.1f us, p99 %.1f us\n"
      r.offered_kreqs r.achieved_kreqs r.p50_us r.p99_us
  | Memcached ->
    let p =
      Workloads.Memcached.default_params ?seed ~mode:Workloads.Memcached.Cfs ~load_kreqs:load ()
    in
    Printf.printf "seed: %d\n" p.Workloads.Memcached.seed;
    let r = Workloads.Memcached.run b p in
    Printf.printf "memcached @ %.0fk req/s: achieved %.1fk, p50 %.1f us, p99 %.1f us\n"
      r.offered_kreqs r.achieved_kreqs r.p50_us r.p99_us

let record_path_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "record" ] ~docv:"PATH"
        ~doc:
          "Stream a record log of the scheduler's messages and lock events to $(docv) \
           while running (bounded memory: the ring drains to the file incrementally); \
           $(b,enoki_sim replay) replays it.")

let allow_drops_arg =
  Arg.(
    value & flag
    & info [ "allow-drops" ]
        ~doc:"Replay a log even if its trailer records ring-overrun drops.")

let bisect_arg =
  Arg.(
    value & flag
    & info [ "bisect" ]
        ~doc:
          "On divergence, report the minimal failing prefix of the log and show the first \
           divergent call with surrounding context.")

let run_cmd =
  let run sched workload load cores trace_path trace_format sanitize seed fault_plan
      fault_seed call_budget watchdog metrics_out metrics_interval profile record_path =
    check_workload_load "run" workload load;
    (match call_budget with
    | Some ns when ns < 0 -> usage_error "run" "--call-budget must be non-negative (got %d)" ns
    | _ -> ());
    let topology = checked (fun () -> topology_of_cores cores) in
    let registry = if metrics_out <> None then Some (Metrics.Registry.create ()) else None in
    let sampler =
      Option.map
        (fun reg -> checked (fun () -> Metrics.Sampler.create ~interval:metrics_interval reg))
        registry
    in
    let prof = if profile then Some (Profile.create ()) else None in
    let tracer =
      if trace_path <> None || sanitize || watchdog then
        Some (Trace.Tracer.create ~nr_cpus:(Kernsim.Topology.nr_cpus topology) ())
      else None
    in
    let sanitizer =
      if sanitize then (
        let s = Trace.Sanitizer.create ~nr_cpus:(Kernsim.Topology.nr_cpus topology) () in
        Trace.Sanitizer.attach s (Option.get tracer);
        Some s)
      else None
    in
    let plan =
      match fault_plan with
      | None -> None
      | Some spec -> (
        match Fault.Plan.parse spec with
        | Ok p -> Some p
        | Error msg ->
          Printf.eprintf "enoki_sim: bad fault plan: %s\n" msg;
          exit 2)
    in
    let pristine = module_of_sched sched in
    let tally = Hashtbl.create 8 in
    let kind =
      match (plan, pristine) with
      | Some p, Some m ->
        Workloads.Setup.Enoki_sched (Fault.Inject.wrap ~tally ~seed:fault_seed ~plan:p m)
      | Some _, None ->
        prerr_endline "enoki_sim: --fault-plan requires an Enoki scheduler module";
        exit 2
      | None, _ -> kind_of_sched sched
    in
    let record =
      match record_path with
      | None -> None
      | Some path -> (
        match kind with
        | Workloads.Setup.Enoki_sched _ -> Some (Enoki.Record.create_file ~path ())
        | _ ->
          prerr_endline "enoki_sim: --record requires an Enoki scheduler";
          exit 2)
    in
    let b =
      Workloads.Setup.build ?record ?tracer ?registry ?profile:prof ?call_budget ~topology kind
    in
    Option.iter
      (fun smp ->
        (match tracer with
        | Some tr ->
          Metrics.Sampler.on_flush smp (fun ~ts ->
              Trace.Tracer.emit tr ~ts ~cpu:0
                (Trace.Event.Metric_flush { tick = Metrics.Sampler.ticks smp }))
        | None -> ());
        Metrics.Sampler.start smp
          ~now:(fun () -> Kernsim.Machine.now b.machine)
          ~defer:(fun ~delay f -> Kernsim.Machine.at b.machine ~delay f))
      sampler;
    (match plan with
    | Some p -> Printf.printf "fault plan: %s (fault seed %d)\n" (Fault.Plan.to_string p) fault_seed
    | None -> ());
    let wd =
      if not watchdog then None
      else
        match (b.enoki, pristine, tracer) with
        | Some e, Some m, Some tr ->
          let w =
            Fault.Watchdog.create ?sanitizer
              ~action:(fun ~reason ~at:_ ->
                Enoki.Enoki_c.restore e ~pristine:m (function
                  | Ok s ->
                    Printf.printf "watchdog: %s -> re-registered %s (pause %s)\n" reason
                      (Enoki.Enoki_c.scheduler_name e)
                      (Kernsim.Time.to_string s.Enoki.Upgrade.pause)
                  | Error exn ->
                    Printf.printf "watchdog: %s -> rollback failed: %s\n" reason
                      (Printexc.to_string exn)))
              ()
          in
          Fault.Watchdog.attach w tr;
          Some w
        | _ ->
          prerr_endline "enoki_sim: --watchdog requires an Enoki scheduler";
          exit 2
    in
    run_workload b workload ~load ~seed;
    (match (record, record_path) with
    | Some r, Some path ->
      Enoki.Record.close r;
      let d = Enoki.Record.dropped r in
      Printf.printf "record: %d events to %s%s\n" (Enoki.Record.length r) path
        (if d > 0 then
           Printf.sprintf
             " — WARNING: %d events DROPPED (ring overrun); replay will refuse this log \
              without --allow-drops"
             d
         else " (0 dropped)")
    | _ -> ());
    print_summary b;
    (match prof with
    | Some p when Profile.crossings p > 0 ->
      print_endline "profile: Enoki-C dispatch boundary (wall ns/call timed on 1 crossing in 64)";
      Report.table ~header:Profile.table_header (Profile.table_rows p)
    | Some _ -> print_endline "profile: no Enoki-C crossings (native scheduler, nothing to attribute)"
    | None -> ());
    (match (metrics_out, registry) with
    | Some path, Some reg ->
      (* final flush so short runs still get at least one sample *)
      Option.iter
        (fun smp -> Metrics.Sampler.flush smp ~ts:(Kernsim.Machine.now b.machine))
        sampler;
      let fmt = Metrics.Export.format_of_path path in
      (try Metrics.Export.save ~path ?sampler fmt reg
       with Sys_error msg ->
         Printf.eprintf "enoki_sim: cannot write metrics: %s\n" msg;
         exit 2);
      Printf.printf "metrics: %d samples to %s\n"
        (match sampler with Some s -> Metrics.Sampler.ticks s | None -> 0)
        path
    | _ -> ());
    if Hashtbl.length tally > 0 then begin
      let items =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      Printf.printf "injected faults: %s\n"
        (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) items))
    end;
    (match wd with
    | Some w ->
      List.iter
        (fun (f : Fault.Watchdog.fire) ->
          Printf.printf "watchdog fired at %s: %s\n" (Kernsim.Time.to_string f.at) f.reason)
        (Fault.Watchdog.fires w)
    | None -> ());
    (match (trace_path, tracer) with
    | Some path, Some tr ->
      let events = Trace.Tracer.events tr in
      (try Trace.Export.save ~path trace_format events
       with Sys_error msg ->
         Printf.eprintf "enoki_sim: cannot write trace: %s\n" msg;
         exit 2);
      Printf.printf "trace: %d events to %s (%s format, %d dropped by ring overrun)\n"
        (List.length events) path
        (Trace.Export.format_to_string trace_format)
        (Trace.Tracer.dropped tr)
    | _ -> ());
    match sanitizer with
    | Some s ->
      print_endline (Trace.Sanitizer.report_string s);
      if not (Trace.Sanitizer.ok s) then exit 3
    | None -> ()
  in
  Cmd.v
    (Cmd.info "run" ~exits:usage_exits
       ~doc:"Run a workload under a scheduler and print its metrics.")
    Term.(
      const run $ sched_arg $ workload_arg $ load_arg $ cores_arg $ trace_arg
      $ trace_format_arg $ sanitize_arg $ seed_arg $ fault_plan_arg $ fault_seed_arg
      $ call_budget_arg $ watchdog_arg $ metrics_out_arg $ metrics_interval_arg $ profile_arg
      $ record_path_arg)

let log_arg =
  Arg.(
    required & opt (some string) None
    & info [ "log"; "l" ] ~docv:"PATH" ~doc:"Record log to replay.")

let window_arg =
  Arg.(
    value & opt int 3
    & info [ "window" ] ~docv:"N"
        ~doc:"Context entries to show either side of the divergent call (with --bisect).")

let replay_cmd =
  let run sched log allow_drops bisect window =
    if window < 0 then usage_error "replay" "--window must be non-negative (got %d)" window;
    match module_of_sched sched with
    | None ->
      prerr_endline ("replay requires " ^ enoki_scheds_hint);
      exit 2
    | Some m -> (
      try do_replay m ~path:log ~allow_drops ~bisect ~window
      with Enoki.Replay.Malformed_log { pos; reason } ->
        if pos = 0 then Printf.eprintf "enoki_sim: %s: %s\n" log reason
        else
          Printf.eprintf "enoki_sim: %s: malformed record log at frame %d: %s\n" log pos reason;
        exit 2)
  in
  Cmd.v
    (Cmd.info "replay" ~exits:replay_exits
       ~doc:
         "Replay a recorded message log against the same scheduler code at userspace and \
          validate its replies.")
    Term.(const run $ sched_arg $ log_arg $ allow_drops_arg $ bisect_arg $ window_arg)

let upgrade_cmd =
  let run sched workload load cores seed =
    check_workload_load "upgrade" workload load;
    match module_of_sched sched with
    | None ->
      prerr_endline ("upgrade requires " ^ enoki_scheds_hint);
      exit 2
    | Some m ->
      let topology = checked (fun () -> topology_of_cores cores) in
      let b = Workloads.Setup.build ~topology (Workloads.Setup.Enoki_sched m) in
      let e = Option.get b.enoki in
      Kernsim.Machine.at b.machine ~delay:(Kernsim.Time.ms 100) (fun () ->
          match Enoki.Enoki_c.upgrade e m with
          | Ok s ->
            Printf.printf "live upgrade at t=100ms: pause %s, %d tasks carried\n"
              (Kernsim.Time.to_string s.Enoki.Upgrade.pause)
              s.Enoki.Upgrade.tasks_carried
          | Error exn -> Printf.printf "upgrade failed: %s\n" (Printexc.to_string exn));
      run_workload b workload ~load ~seed;
      print_summary b
  in
  Cmd.v
    (Cmd.info "upgrade" ~exits:usage_exits
       ~doc:"Run a workload and live-upgrade the scheduler 100ms in.")
    Term.(const run $ sched_arg $ workload_arg $ load_arg $ cores_arg $ seed_arg)

(* ---------- fleet ---------- *)

let lb_conv =
  let parse s =
    match Cluster.Lb.policy_of_string s with Ok p -> Ok p | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (Cluster.Lb.policy_name p))

let fleet_hosts_arg =
  Arg.(value & opt int 8 & info [ "hosts" ] ~docv:"N" ~doc:"Number of simulated hosts.")

let fleet_scheds_arg =
  Arg.(
    value
    & opt (list sched_conv) []
    & info [ "scheds" ] ~docv:"LIST"
        ~doc:
          "Comma-separated scheduler names cycled across the hosts (heterogeneous fleets are \
           fine); defaults to $(b,wfq) everywhere.  Same vocabulary as $(b,--sched).")

let fleet_lb_arg =
  Arg.(
    value
    & opt lb_conv Cluster.Lb.Least_outstanding
    & info [ "lb" ] ~docv:"POLICY"
        ~doc:
          (Printf.sprintf "Load-balancing policy: %s."
             (String.concat ", "
                (List.map (Printf.sprintf "$(b,%s)") Cluster.Lb.policy_names))))

let fleet_duration_arg =
  Arg.(
    value & opt int 2000
    & info [ "duration" ] ~docv:"MS" ~doc:"Simulated run length in milliseconds.")

let fleet_flows_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "flows" ] ~docv:"N"
        ~doc:
          "Run until the traffic engine has churned through $(docv) complete flows (capped by \
           $(b,--duration)); the bounded-memory scale check.")

let fleet_epoch_arg =
  Arg.(
    value & opt int 1000
    & info [ "epoch" ] ~docv:"US" ~doc:"Fleet coordination epoch in microseconds.")

let fleet_workers_arg =
  Arg.(value & opt int 6 & info [ "workers" ] ~docv:"N" ~doc:"Server tasks per host.")

let fleet_queue_cap_arg =
  Arg.(
    value & opt int 4096
    & info [ "queue-cap" ] ~docv:"N" ~doc:"Per-host ingress queue depth; overflow drops.")

let fleet_conns_arg =
  Arg.(
    value & opt int 256
    & info [ "connections" ] ~docv:"N" ~doc:"Connection slots per tenant (the live-flow pool).")

let fleet_flow_len_arg =
  Arg.(
    value & opt float 8.0
    & info [ "flow-len" ] ~docv:"MEAN" ~doc:"Mean requests per flow (connection churn rate).")

let fleet_upgrade_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "upgrade" ] ~docv:"MS"
        ~doc:
          "Rolling live upgrade: re-register each Enoki host's scheduler starting at $(docv) \
           ms, staggered by $(b,--stagger).")

let fleet_stagger_arg =
  Arg.(
    value & opt int 50
    & info [ "stagger" ] ~docv:"MS" ~doc:"Per-host stagger for the rolling upgrade.")

let fleet_chaos_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "chaos" ] ~docv:"HOST"
        ~doc:
          "Chaos drill: panic host $(docv)'s scheduler module mid-run (it must be an Enoki \
           host); the fleet drains, fails over and re-admits it.")

let fleet_chaos_after_arg =
  Arg.(
    value & opt int 20_000
    & info [ "chaos-after" ] ~docv:"CALLS" ~doc:"Scheduler calls before the drill panic fires.")

let fleet_anatomy_arg =
  Arg.(
    value & flag
    & info [ "anatomy" ]
        ~doc:
          "Decompose every request's end-to-end latency into six exactly summing phases (LB \
           decision, ingress wait, runqueue wait, service, preemption stall, migration cost) \
           and print the per-tenant breakdown plus the worst-request exemplars.")

let fleet_anatomy_top_arg =
  Arg.(
    value & opt int 8
    & info [ "anatomy-top" ] ~docv:"K" ~doc:"Worst-request exemplars to keep (default 8).")

let fleet_anatomy_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "anatomy-out" ] ~docv:"PATH"
        ~doc:
          "Write the top-K worst requests as a Chrome-trace flow-event timeline (arrows LB -> \
           host ingress -> runqueue -> worker) to $(docv); implies $(b,--anatomy).")

let fleet_jobs_arg =
  Arg.(
    value
    & opt ~vopt:(-1) int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Advance hosts in parallel on $(docv) OCaml domains.  Results are byte-identical to \
           the sequential run for any $(docv) — only wall clock changes.  0 (the default) runs \
           sequentially; bare $(b,-j) uses the machine's recommended domain count.")

let fleet_cmd =
  let run hosts scheds lb load cores duration flows epoch_us workers queue_cap connections
      flow_len seed upgrade_ms stagger_ms chaos_victim chaos_after anatomy anatomy_top
      anatomy_out jobs metrics_out metrics_interval =
    let anatomy = anatomy || anatomy_out <> None in
    let entries =
      match scheds with
      | [] -> (
        match Schedulers.Registry.find "wfq" with
        | Some e -> List.init (max 0 hosts) (fun _ -> e)
        | None -> assert false)
      | l -> List.init (max 0 hosts) (fun i -> List.nth l (i mod List.length l))
    in
    let seed = Option.value seed ~default:1 in
    check_load "fleet" load;
    if duration <= 0 then
      usage_error "fleet" "--duration must be a positive number of ms (got %d)" duration;
    (match flows with
    | Some n when n <= 0 -> usage_error "fleet" "--flows must be positive (got %d)" n
    | _ -> ());
    let tenants = Cluster.Traffic.standard_mix ~connections ~flow_len ~load_kreqs:load () in
    let upgrade =
      Option.map
        (fun ms ->
          { Cluster.Fleet.at = Kernsim.Time.ms ms; stagger = Kernsim.Time.ms stagger_ms })
        upgrade_ms
    in
    let chaos =
      Option.map
        (fun victim ->
          { Cluster.Fleet.victim; after_calls = chaos_after; recovery = Kernsim.Time.ms 20 })
        chaos_victim
    in
    let jobs = if jobs < 0 then Domain.recommended_domain_count () else jobs in
    if jobs > 1 && jobs > hosts then
      Printf.eprintf
        "enoki_sim: fleet: -j %d exceeds %d hosts; the extra domains will idle\n%!" jobs hosts;
    let pool = if jobs > 1 then Some (Ds.Domain_pool.create ~domains:jobs ()) else None in
    (* drive epochs by hand so the sampler can tick at fleet scope: the
       lock-step fleet has no machine-level defer spanning hosts, so the
       --metrics-interval cadence is applied between epochs *)
    let topology = checked (fun () -> topology_of_cores cores) in
    (* [Fleet.create] builds every host: only its own flag checks are usage
       errors, anything else it raises is an internal fault *)
    let f =
      checked ~prefix:"Fleet.create:" (fun () ->
          Cluster.Fleet.create ~topology ~workers ~queue_cap ~epoch:(Kernsim.Time.us epoch_us)
            ~warmup:(Kernsim.Time.ms 100) ?upgrade ?chaos ~lb ~anatomy ~anatomy_top ?pool ~seed
            ~hosts:entries ~tenants ())
    in
    let sampler =
      Option.map
        (fun _ ->
          checked (fun () ->
              Metrics.Sampler.create ~interval:metrics_interval (Cluster.Fleet.registry f)))
        metrics_out
    in
    Printf.printf "fleet: %d hosts (%s), lb %s, %.0fk req/s offered, seed %d\n" hosts
      (String.concat "," (List.map (fun (e : Schedulers.Registry.entry) -> e.name) entries))
      (Cluster.Lb.policy_name lb) load seed;
    let next_sample = ref metrics_interval in
    let sample_up_to now =
      match sampler with
      | Some s ->
        while !next_sample <= now do
          Metrics.Sampler.flush s ~ts:!next_sample;
          next_sample := !next_sample + metrics_interval
        done
      | None -> ()
    in
    let limit = Kernsim.Time.ms duration in
    let keep_going =
      match flows with
      | Some n ->
        fun () ->
          Cluster.Traffic.flows_completed (Cluster.Fleet.traffic f) < n
          && Cluster.Fleet.clock f < limit
      | None -> fun () -> Cluster.Fleet.clock f < limit
    in
    (try
       while keep_going () do
         Cluster.Fleet.step f ~limit;
         sample_up_to (Cluster.Fleet.clock f)
       done
     with e ->
       Option.iter Ds.Domain_pool.shutdown pool;
       raise e);
    Option.iter Ds.Domain_pool.shutdown pool;
    (match sampler with
    | Some s when !next_sample - metrics_interval < Cluster.Fleet.clock f ->
      Metrics.Sampler.flush s ~ts:(Cluster.Fleet.clock f)
    | _ -> ());
    let tr = Cluster.Fleet.traffic f in
    Printf.printf "ran %s: %d flows (%d live), %d requests emitted\n"
      (Kernsim.Time.to_string (Cluster.Fleet.clock f))
      (Cluster.Traffic.flows_completed tr)
      (Cluster.Traffic.live_flows tr)
      (Cluster.Traffic.requests_emitted tr);
    Report.table
      ~header:[ "tenant"; "completed"; "dropped"; "rejected"; "p50"; "p99"; "p999" ]
      (List.map
         (fun (s : Cluster.Fleet.tenant_stat) ->
           [
             s.tenant;
             string_of_int s.completed;
             string_of_int s.dropped;
             string_of_int s.rejected;
             Kernsim.Time.to_string s.p50;
             Kernsim.Time.to_string s.p99;
             Kernsim.Time.to_string s.p999;
           ])
         (Cluster.Fleet.tenant_stats f));
    Report.table
      ~header:[ "host"; "sched"; "completed"; "p99"; "state" ]
      (List.map
         (fun (s : Cluster.Fleet.host_stat) ->
           [
             string_of_int s.host;
             s.sched;
             string_of_int s.completed;
             Kernsim.Time.to_string s.p99;
             (if s.drained then "drained"
              else if s.quarantined then "failed-over"
              else "up");
           ])
         (Cluster.Fleet.host_stats f));
    (match Cluster.Fleet.anatomy f with
    | Some a when anatomy ->
      Report.section "request anatomy";
      let phases = Trace.Anatomy.phases in
      Report.table
        ~header:
          ("tenant" :: "requests" :: "e2e mean"
          :: List.concat_map (fun ph -> [ Trace.Anatomy.phase_name ph; "%" ]) phases)
        (List.filteri
           (fun _ row -> row <> [])
           (Array.to_list
              (Array.mapi
                 (fun tn name ->
                   let count = Trace.Anatomy.tenant_count a tn in
                   if count = 0 then []
                   else
                     let e2e = Trace.Anatomy.tenant_e2e_sum a tn in
                     name
                     :: string_of_int count
                     :: Kernsim.Time.to_string (e2e / count)
                     :: List.concat_map
                          (fun ph ->
                            let sum = Trace.Anatomy.tenant_phase_sum a tn ph in
                            [
                              Kernsim.Time.to_string (sum / count);
                              Report.fmt_pct
                                (if e2e = 0 then 0.0
                                 else 100.0 *. float_of_int sum /. float_of_int e2e);
                            ])
                          phases)
                 (Trace.Anatomy.tenant_names a))));
      Report.note
        (Printf.sprintf "phases sum to e2e exactly: max error %d ns over %d requests%s"
           (Trace.Anatomy.max_sum_error a)
           (Trace.Anatomy.completions a)
           (if Trace.Anatomy.orphans a > 0 then
              Printf.sprintf " (%d orphaned contexts)" (Trace.Anatomy.orphans a)
            else ""));
      let exs = Trace.Anatomy.exemplars a in
      if exs <> [] then begin
        Report.section "worst requests";
        Report.table
          ~header:[ "req"; "tenant"; "host"; "worker"; "e2e"; "dominant phase" ]
          (List.map
             (fun (c : Trace.Anatomy.completion) ->
               let dominant =
                 List.fold_left
                   (fun (best, best_d) ph ->
                     let d = c.Trace.Anatomy.durations.(Trace.Anatomy.phase_index ph) in
                     if d > best_d then (ph, d) else (best, best_d))
                   (Trace.Anatomy.Lb_decision, -1)
                   phases
                 |> fst
               in
               let names = Trace.Anatomy.tenant_names a in
               [
                 string_of_int c.Trace.Anatomy.req;
                 (if c.Trace.Anatomy.tenant < Array.length names then
                    names.(c.Trace.Anatomy.tenant)
                  else string_of_int c.Trace.Anatomy.tenant);
                 string_of_int c.Trace.Anatomy.host;
                 string_of_int c.Trace.Anatomy.pid;
                 Kernsim.Time.to_string (Trace.Anatomy.e2e c);
                 Trace.Anatomy.phase_name dominant;
               ])
             exs)
      end;
      (match anatomy_out with
      | Some path ->
        (try
           Trace.Anatomy.save_chrome a ~path;
           Printf.printf "anatomy: top-%d exemplar timeline to %s\n" anatomy_top path
         with Sys_error msg ->
           Printf.eprintf "enoki_sim: cannot write anatomy trace: %s\n" msg;
           exit 2)
      | None -> ())
    | _ -> ());
    List.iter
      (fun (host, pause) ->
        Printf.printf "upgrade: host %d paused %s\n" host (Kernsim.Time.to_string pause))
      (Cluster.Fleet.upgrades f);
    if Cluster.Fleet.upgrade_failures f > 0 then
      Printf.printf "upgrade failures: %d\n" (Cluster.Fleet.upgrade_failures f);
    let bl = Cluster.Fleet.blackout f in
    if Stats.Histogram.count bl > 0 then
      Printf.printf "blackout window: %d requests, p99 %s, p999 %s\n" (Stats.Histogram.count bl)
        (Kernsim.Time.to_string (Stats.Histogram.percentile bl 99.0))
        (Kernsim.Time.to_string (Stats.Histogram.percentile bl 99.9));
    List.iter
      (fun (ts, host, op) ->
        Printf.printf "fleet op: %s host %d %s\n" (Kernsim.Time.to_string ts) host op)
      (Cluster.Fleet.oplog f);
    (match chaos with
    | Some _ ->
      Printf.printf "chaos drill: %s, sanitizer %s\n"
        (if Cluster.Fleet.converged f then "converged (victim re-admitted)"
         else "NOT converged")
        (if Cluster.Fleet.sanitizer_ok f then "clean" else "VIOLATIONS")
    | None -> ());
    (match metrics_out with
    | Some path ->
      let fmt = Metrics.Export.format_of_path path in
      (try Metrics.Export.save ~path ?sampler fmt (Cluster.Fleet.registry f)
       with
      | Sys_error msg ->
        Printf.eprintf "enoki_sim: cannot write metrics: %s\n" msg;
        exit 2
      | Invalid_argument msg ->
        Printf.eprintf "enoki_sim: cannot write metrics: %s\n" msg;
        exit 2);
      Printf.printf "metrics: fleet registry to %s (%d samples)\n" path
        (match sampler with Some s -> List.length (Metrics.Sampler.samples s) | None -> 0)
    | None -> ());
    if (chaos <> None && not (Cluster.Fleet.converged f)) || not (Cluster.Fleet.sanitizer_ok f)
    then exit 3
  in
  Cmd.v
    (Cmd.info "fleet" ~exits:usage_exits
       ~doc:
         "Drive a simulated fleet: N hosts behind a load balancer under open-loop multi-tenant \
          traffic, with optional rolling live upgrades and chaos drills.")
    Term.(
      const run $ fleet_hosts_arg $ fleet_scheds_arg $ fleet_lb_arg $ load_arg $ cores_arg
      $ fleet_duration_arg $ fleet_flows_arg $ fleet_epoch_arg $ fleet_workers_arg
      $ fleet_queue_cap_arg $ fleet_conns_arg $ fleet_flow_len_arg $ seed_arg $ fleet_upgrade_arg
      $ fleet_stagger_arg $ fleet_chaos_arg $ fleet_chaos_after_arg $ fleet_anatomy_arg
      $ fleet_anatomy_top_arg $ fleet_anatomy_out_arg $ fleet_jobs_arg $ metrics_out_arg
      $ metrics_interval_arg)

let () =
  let doc = "Enoki scheduler-framework simulator" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "enoki_sim" ~doc)
          [ run_cmd; replay_cmd; upgrade_cmd; fleet_cmd ]))
