(* lib/fault: deterministic fault plans, injection through the module
   boundary, per-call budgets, and watchdog-driven rollback.  Each
   module's own containment (a panic quarantined and failed over to CFS,
   a wedge restored by the watchdog) is the check table's fault-isolation
   cell, in test_checks. *)

let check = Alcotest.check

module M = Kernsim.Machine

let one_socket = Kernsim.Topology.one_socket

let plan_of s =
  match Fault.Plan.parse s with
  | Ok p -> p
  | Error m -> Alcotest.failf "parse %S: %s" s m

(* ---------- plan grammar ---------- *)

let test_plan_parse_roundtrip () =
  List.iter
    (fun spec ->
      let p = plan_of spec in
      let printed = Fault.Plan.to_string p in
      let p' = plan_of printed in
      check Alcotest.string spec printed (Fault.Plan.to_string p'))
    [
      "panic@task_wakeup:after=400,max=1";
      "wrong-reply:p=0.02";
      "latency:p=0.01,ns=250000";
      "wedge@pick_next_task:after=800";
      "corrupt-hint:p=0.5";
      "panic@balance;wrong-reply:p=0.5;bad-select";
    ]

let test_plan_parse_errors () =
  List.iter
    (fun spec ->
      match Fault.Plan.parse spec with
      | Ok _ -> Alcotest.failf "%S must not parse" spec
      | Error _ -> ())
    [
      "";
      "frobnicate";
      "panic:p=nope";
      "latency:bogus=3";
      "panic@";
      "panic:p=nan";
      "panic:p=inf";
      "latency:ns=-100000";
      "panic:max=-1";
      "wedge:after=-1";
    ]

let test_presets_parse () =
  List.iter
    (fun (name, p) ->
      check Alcotest.bool (name ^ " nonempty") true (p <> []);
      match Fault.Plan.parse name with
      | Ok p' -> check Alcotest.string name (Fault.Plan.to_string p) (Fault.Plan.to_string p')
      | Error m -> Alcotest.failf "preset %s: %s" name m)
    (Fault.Plan.Private.presets ())

(* ---------- faulted runs ---------- *)

(* wfq under [plan], sanitized, through a 3000-message pipe; [arm] runs
   on the built machine before the pipe does *)
let faulted_run ?call_budget ?(arm = ignore) ~plan ~seed () =
  let nr_cpus = Kernsim.Topology.nr_cpus one_socket in
  let tracer = Trace.Tracer.create ~nr_cpus () in
  let s = Trace.Sanitizer.create ~nr_cpus () in
  Trace.Sanitizer.attach s tracer;
  let m = Fault.Inject.wrap ~seed ~plan:(plan_of plan) (module Schedulers.Wfq) in
  let b =
    Workloads.Setup.build ~tracer ?call_budget ~topology:one_socket
      (Workloads.Setup.Enoki_sched m)
  in
  arm b;
  let r = Workloads.Pipe_bench.run b ~messages:3_000 () in
  (b, tracer, s, r)

let event_names tracer =
  List.map (fun (e : Trace.Event.t) -> Trace.Event.name e.kind) (Trace.Tracer.events tracer)

let count_kind s k =
  List.length
    (List.filter (fun (v : Trace.Sanitizer.violation) -> v.vkind = k) (Trace.Sanitizer.violations s))

(* same (plan, seed, workload) -> bit-identical runs *)
let test_deterministic_replay () =
  let once () =
    let b, tracer, _, r = faulted_run ~plan:"chaos" ~seed:5 () in
    let evs = List.map Trace.Event.to_string (Trace.Tracer.events tracer) in
    let f = Enoki.Enoki_c.failover_stats (Option.get b.Workloads.Setup.enoki) in
    (evs, r.Workloads.Pipe_bench.us_per_wakeup, f)
  in
  let e1, us1, f1 = once () in
  let e2, us2, f2 = once () in
  check Alcotest.int "same event count" (List.length e1) (List.length e2);
  check Alcotest.bool "bit-identical event stream" true (e1 = e2);
  check (Alcotest.float 0.0) "identical wakeup metric" us1 us2;
  check Alcotest.int "same panic count" f1.Enoki.Enoki_c.panics f2.Enoki.Enoki_c.panics

let test_bad_select_contained () =
  let b, _, s, r = faulted_run ~plan:"bad-select:p=0.2" ~seed:3 () in
  let e = Option.get b.Workloads.Setup.enoki in
  check Alcotest.bool "workload completed" true r.Workloads.Pipe_bench.completed;
  check Alcotest.bool "absurd cpus rejected and counted" true
    (List.mem_assoc "bad_select_cpu" (Enoki.Enoki_c.violation_breakdown e));
  check Alcotest.int "no double-run" 0 (count_kind s Trace.Sanitizer.Double_run)

let test_call_budget_overruns () =
  let b, tracer, _, r =
    faulted_run ~plan:"wedge@pick_next_task:after=100,max=5" ~call_budget:1_000_000 ~seed:1 ()
  in
  let e = Option.get b.Workloads.Setup.enoki in
  let f = Enoki.Enoki_c.failover_stats e in
  check Alcotest.bool "workload completed" true r.Workloads.Pipe_bench.completed;
  check Alcotest.int "each wedge overruns the budget" 5 f.Enoki.Enoki_c.overruns;
  check Alcotest.bool "overrun events traced" true (List.mem "overrun" (event_names tracer))

(* ---------- the watchdog ---------- *)

(* upgrade to a wedged version mid-run; the watchdog rolls back to the
   previous version through the upgrade history.  The [pristine] module
   carries its own name, so a restore that skipped the history and
   re-registered it instead fails the name check. *)
let test_watchdog_rolls_back_bad_upgrade () =
  let nr_cpus = Kernsim.Topology.nr_cpus one_socket in
  let tracer = Trace.Tracer.create ~nr_cpus () in
  let b =
    Workloads.Setup.build ~tracer ~call_budget:1_000_000 ~topology:one_socket
      (Workloads.Setup.Enoki_sched (module Schedulers.Wfq))
  in
  let e = Option.get b.Workloads.Setup.enoki in
  let wedged =
    Fault.Inject.wrap ~seed:1 ~plan:(plan_of "wedge@pick_next_task") (module Schedulers.Wfq)
  in
  M.at b.Workloads.Setup.machine ~delay:(Kernsim.Time.ms 10) (fun () ->
      match Enoki.Enoki_c.upgrade e wedged with Ok _ -> () | Error exn -> raise exn);
  let rollbacks = ref 0 in
  let module Pristine = struct
    include Schedulers.Wfq

    let name = "wfq-pristine"
  end in
  let w =
    Fault.Watchdog.create
      ~action:(fun ~reason:_ ~at:_ ->
        Enoki.Enoki_c.restore e ~pristine:(module Pristine) (function
          | Ok _ -> incr rollbacks
          | Error exn -> raise exn))
      ()
  in
  Fault.Watchdog.attach w tracer;
  let r = Workloads.Pipe_bench.run b ~messages:3_000 () in
  check Alcotest.bool "workload completed" true r.Workloads.Pipe_bench.completed;
  check Alcotest.bool "watchdog fired on the wedged upgrade" true (Fault.Watchdog.fires w <> []);
  check Alcotest.bool "rolled back" true (!rollbacks >= 1);
  check Alcotest.string "previous version re-registered" "wfq" (Enoki.Enoki_c.scheduler_name e)

(* a panic storm quarantines the module; a later upgrade must clear the
   quarantine, re-adopt the tasks from kernel ground truth and finish *)
let test_upgrade_clears_quarantine () =
  let upgrade_at_20ms (b : Workloads.Setup.built) =
    M.at b.machine ~delay:(Kernsim.Time.ms 20) (fun () ->
        match Enoki.Enoki_c.upgrade (Option.get b.enoki) (module Schedulers.Wfq) with
        | Ok _ -> ()
        | Error exn -> raise exn)
  in
  let b, _, s, r =
    faulted_run ~plan:"panic@task_wakeup:p=0.5,max=3" ~seed:2 ~arm:upgrade_at_20ms ()
  in
  let e = Option.get b.Workloads.Setup.enoki in
  let f = Enoki.Enoki_c.failover_stats e in
  check Alcotest.bool "workload completed" true r.Workloads.Pipe_bench.completed;
  check Alcotest.bool "was quarantined" true (f.Enoki.Enoki_c.panics >= 1);
  check Alcotest.bool "quarantine cleared by the upgrade" true
    (f.Enoki.Enoki_c.quarantined = None);
  check Alcotest.string "healthy module registered" "wfq" (Enoki.Enoki_c.scheduler_name e);
  check Alcotest.int "no double-run" 0 (count_kind s Trace.Sanitizer.Double_run);
  check Alcotest.int "no token violation" 0 (count_kind s Trace.Sanitizer.Token_discipline)

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          ("spec round-trip", `Quick, test_plan_parse_roundtrip);
          ("bad specs rejected", `Quick, test_plan_parse_errors);
          ("presets parse to themselves", `Quick, test_presets_parse);
        ] );
      ( "inject",
        [
          ("same plan+seed replays bit-identically", `Quick, test_deterministic_replay);
          ("absurd select_task_rq contained", `Quick, test_bad_select_contained);
          ("call budget overruns detected", `Quick, test_call_budget_overruns);
        ] );
      ( "watchdog",
        [
          ("bad upgrade rolled back", `Quick, test_watchdog_rolls_back_bad_upgrade);
          ("upgrade clears quarantine", `Quick, test_upgrade_clears_quarantine);
        ] );
    ]
