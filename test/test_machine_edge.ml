(* Edge-case tests for the machine substrate: idle-state costs, custom
   timers, NUMA balancing, hint delivery, charge semantics, and the
   framework behaviours that only show under unusual sequences. *)

module T = Kernsim.Task
module M = Kernsim.Machine

let check = Alcotest.check

let machine ?(topology = Kernsim.Topology.one_socket) ?costs () =
  M.create ?costs ~topology ~classes:[ Kernsim.Cfs.factory ~debug_checks:true () ] ()

let one_shot compute =
  let done_ = ref false in
  fun (_ : T.ctx) ->
    if !done_ then T.exit
    else begin
      done_ := true;
      T.compute compute
    end

(* ---------- idle-state model ---------- *)

let wakeup_p50_with_sleep sleep =
  let m = machine () in
  let beh =
    let n = ref 50 and st = ref `Work in
    fun (_ : T.ctx) ->
      match !st with
      | `Work ->
        if !n = 0 then T.exit
        else begin
          decr n;
          st := `Sleep;
          T.compute (Kernsim.Time.us 20)
        end
      | `Sleep ->
        st := `Work;
        T.sleep sleep
  in
  ignore (M.spawn m (T.default_spec ~name:"sleeper" beh));
  M.run_for m (Kernsim.Time.sec 1);
  Stats.Histogram.percentile (Kernsim.Accounting.wakeup_latency (M.metrics m)) 50.0

let test_deep_idle_costs_more () =
  (* short sleeps keep the core shallow; long sleeps hit the deep state *)
  let shallow = wakeup_p50_with_sleep (Kernsim.Time.us 50) in
  let deep = wakeup_p50_with_sleep (Kernsim.Time.ms 2) in
  check Alcotest.bool "deep idle exit dominates" true (deep > 5 * shallow);
  check Alcotest.bool "deep ~= configured exit cost" true
    (deep >= Kernsim.Costs.default.deep_idle_exit)

let test_costs_are_configurable () =
  let costs = { Kernsim.Costs.default with deep_idle_exit = Kernsim.Costs.default.idle_exit } in
  let m = machine ~costs () in
  let beh =
    let n = ref 20 and st = ref `Work in
    fun (_ : T.ctx) ->
      match !st with
      | `Work ->
        if !n = 0 then T.exit
        else begin
          decr n;
          st := `Sleep;
          T.compute (Kernsim.Time.us 20)
        end
      | `Sleep ->
        st := `Work;
        T.sleep (Kernsim.Time.ms 2)
  in
  ignore (M.spawn m (T.default_spec ~name:"s" beh));
  M.run_for m (Kernsim.Time.sec 1);
  let p50 = Stats.Histogram.percentile (Kernsim.Accounting.wakeup_latency (M.metrics m)) 50.0 in
  check Alcotest.bool "flattened idle exit flattens wakeups" true (p50 < Kernsim.Time.us 5)

(* ---------- custom per-cpu timers through the Enoki ctx ---------- *)

module Timer_probe = struct
  include Schedulers.Fifo_sched

  let name = "timer-probe"

  let fired = ref 0

  let saved_ctx : Enoki.Ctx.t option ref = ref None

  let create ctx =
    saved_ctx := Some ctx;
    fired := 0;
    Schedulers.Fifo_sched.create ctx

  let task_tick t ~cpu ~queued =
    incr fired;
    Schedulers.Fifo_sched.task_tick t ~cpu ~queued
end

let test_ctx_timer_fires_task_tick () =
  let b =
    Workloads.Setup.build ~topology:Kernsim.Topology.one_socket
      (Workloads.Setup.Enoki_sched (module Timer_probe))
  in
  ignore
    (M.spawn b.machine
       { (T.default_spec ~name:"x" (one_shot (Kernsim.Time.us 100))) with T.policy = b.policy });
  M.run_for b.machine (Kernsim.Time.us 50);
  let before = !Timer_probe.fired in
  (match !Timer_probe.saved_ctx with
  | Some ctx ->
    ctx.set_timer ~cpu:3 (Kernsim.Time.us 10);
    ctx.set_timer ~cpu:3 (Kernsim.Time.us 20) (* re-arm replaces *)
  | None -> Alcotest.fail "scheduler never created");
  M.run_for b.machine (Kernsim.Time.us 15);
  check Alcotest.int "replaced timer did not fire early" before !Timer_probe.fired;
  M.run_for b.machine (Kernsim.Time.us 10);
  check Alcotest.bool "re-armed timer fired" true (!Timer_probe.fired > before);
  (match !Timer_probe.saved_ctx with
  | Some ctx ->
    let f = !Timer_probe.fired in
    ctx.set_timer ~cpu:2 (Kernsim.Time.us 10);
    ctx.cancel_timer ~cpu:2;
    M.run_for b.machine (Kernsim.Time.us 50);
    (* the global 1ms tick has not happened yet inside this window *)
    check Alcotest.int "cancelled timer never fired" f !Timer_probe.fired
  | None -> ())

(* ---------- NUMA-thresholded balancing in CFS ---------- *)

let test_cfs_numa_threshold () =
  (* two-socket box: a pile on node 0 gets pulled by node-1 cpus only when
     the imbalance exceeds the threshold; a single surplus task does not
     cross nodes while its own node can serve it *)
  let m =
    M.create ~topology:Kernsim.Topology.two_socket
      ~classes:[ Kernsim.Cfs.factory ~debug_checks:true () ]
      ()
  in
  (* fill node 0 (cpus 0-39) with exactly one hog per cpu, plus 8 extra *)
  let node0 = List.init 40 Fun.id in
  let extras =
    List.init 48 (fun i ->
        M.spawn m
          {
            (T.default_spec ~name:(Printf.sprintf "n0-%d" i)
               (one_shot (Kernsim.Time.ms 40)))
            with
            T.affinity = None;
          })
  in
  ignore node0;
  M.run_for m (Kernsim.Time.ms 200);
  (* all 48 finish: the 8 surplus tasks migrated somewhere, possibly across
     the node; work conservation holds *)
  List.iter
    (fun pid ->
      check Alcotest.bool "finished" true ((Option.get (M.find_task m pid)).T.state = T.Dead))
    extras

(* ---------- hint delivery plumbing ---------- *)

let test_hint_burst_parsed () =
  Schedulers.Hints.register_codecs ();
  let enoki = Enoki.Enoki_c.create (module Schedulers.Locality) in
  let m =
    M.create ~topology:Kernsim.Topology.one_socket
      ~classes:[ Enoki.Enoki_c.factory enoki; Kernsim.Cfs.factory () ]
      ()
  in
  (* each hint reaches parse_hint as it is sent, so a burst sent one
     action at a time arrives whole *)
  let beh =
    let n = ref 5 in
    fun (ctx : T.ctx) ->
      if !n = 0 then T.exit
      else begin
        decr n;
        T.send_hint ctx (Schedulers.Hints.Locality { pid = ctx.T.self; group = !n })
      end
  in
  ignore (M.spawn m { (T.default_spec ~name:"h" beh) with T.policy = 0 });
  M.run_for m (Kernsim.Time.ms 5);
  check Alcotest.int "every hint parsed" 5 (Enoki.Enoki_c.Private.hints_parsed enoki)

let test_reverse_queue_reaches_inbox () =
  (* kernel-to-user messages land in the task inbox at its next action *)
  let got = ref [] in
  let module Announcer = struct
    include Schedulers.Fifo_sched

    let name = "announcer"

    let create (ctx : Enoki.Ctx.t) =
      let t = Schedulers.Fifo_sched.create ctx in
      t

    let task_new inner ~pid ~runtime ~prio ~sched =
      Schedulers.Fifo_sched.task_new inner ~pid ~runtime ~prio ~sched
  end in
  let saved : Enoki.Ctx.t option ref = ref None in
  let module With_ctx = struct
    include Announcer

    let create ctx =
      saved := Some ctx;
      Announcer.create ctx
  end in
  let b =
    Workloads.Setup.build ~topology:Kernsim.Topology.one_socket
      (Workloads.Setup.Enoki_sched (module With_ctx))
  in
  let beh =
    let n = ref 3 in
    fun (ctx : T.ctx) ->
      List.iter
        (fun h ->
          match h with Schedulers.Hints.Core_reclaim { slot } -> got := slot :: !got | _ -> ())
        ctx.T.inbox;
      if !n = 0 then T.exit
      else begin
        decr n;
        T.compute (Kernsim.Time.us 50)
      end
  in
  let pid = M.spawn b.machine { (T.default_spec ~name:"listener" beh) with T.policy = b.policy } in
  M.at b.machine ~delay:(Kernsim.Time.us 10) (fun () ->
      match !saved with
      | Some ctx -> ctx.send_user ~pid (Schedulers.Hints.Core_reclaim { slot = 7 })
      | None -> Alcotest.fail "no ctx");
  M.run_for b.machine (Kernsim.Time.ms 5);
  check Alcotest.(list int) "message delivered" [ 7 ] !got

(* ---------- metrics ---------- *)

let test_metrics_reset_clears_window () =
  let m = machine () in
  ignore (M.spawn m (T.default_spec ~name:"a" (one_shot (Kernsim.Time.ms 1))));
  M.run_for m (Kernsim.Time.ms 5);
  let mets = M.metrics m in
  check Alcotest.bool "activity recorded" true (Kernsim.Accounting.schedules mets > 0);
  Kernsim.Accounting.reset mets;
  check Alcotest.int "schedules cleared" 0 (Kernsim.Accounting.schedules mets);
  check Alcotest.int "busy cleared" 0 (Kernsim.Accounting.total_busy mets);
  check Alcotest.int "wakeup samples cleared" 0
    (Stats.Histogram.count (Kernsim.Accounting.wakeup_latency mets))

let test_busy_by_group_partitions () =
  let m = machine () in
  let spawn name group =
    M.spawn m
      { (T.default_spec ~name (one_shot (Kernsim.Time.ms 2))) with T.group }
  in
  ignore (spawn "a" "alpha");
  ignore (spawn "b" "beta");
  M.run_for m (Kernsim.Time.ms 10);
  let mets = M.metrics m in
  let alpha = Kernsim.Accounting.busy_of_group mets "alpha" in
  let beta = Kernsim.Accounting.busy_of_group mets "beta" in
  check Alcotest.bool "both groups measured" true
    (alpha >= Kernsim.Time.ms 2 && beta >= Kernsim.Time.ms 2);
  check Alcotest.int "groups sum to total" (Kernsim.Accounting.total_busy mets) (alpha + beta)

(* ---------- blocked-state policy switch ---------- *)

let test_set_policy_while_blocked () =
  let b =
    Workloads.Setup.build ~topology:Kernsim.Topology.one_socket
      (Workloads.Setup.Enoki_sched (module Schedulers.Fifo_sched))
  in
  let m = b.machine in
  let ch = M.new_chan m in
  let beh =
    let st = ref `Wait in
    fun (_ : T.ctx) ->
      match !st with
      | `Wait ->
        st := `Work;
        T.block ch
      | `Work -> T.exit
  in
  let pid = M.spawn m { (T.default_spec ~name:"b" beh) with T.policy = b.policy } in
  M.run_for m (Kernsim.Time.ms 1);
  check Alcotest.bool "blocked" true ((Option.get (M.find_task m pid)).T.state = T.Blocked);
  (* switch while blocked, then wake: the new class adopts at wakeup *)
  M.Private.set_policy m ~pid ~policy:b.cfs_policy;
  let waker =
    let st = ref `Go in
    fun (_ : T.ctx) ->
      match !st with
      | `Go ->
        st := `End;
        T.wake ch
      | `End -> T.exit
  in
  ignore (M.spawn m { (T.default_spec ~name:"w" waker) with T.policy = b.cfs_policy });
  M.run_for m (Kernsim.Time.ms 10);
  let task = Option.get (M.find_task m pid) in
  check Alcotest.int "policy switched" b.cfs_policy task.T.policy;
  check Alcotest.bool "completed under new class" true (task.T.state = T.Dead)

(* ---------- record during upgrade (paper: unsupported, must not corrupt) ---------- *)

let test_record_across_upgrade_is_harmless () =
  let record = Enoki.Record.create () in
  let b =
    Workloads.Setup.build ~record ~topology:Kernsim.Topology.one_socket
      (Workloads.Setup.Enoki_sched (module Schedulers.Wfq))
  in
  ignore
    (M.spawn b.machine
       { (T.default_spec ~name:"x" (one_shot (Kernsim.Time.ms 20))) with T.policy = b.policy });
  let e = Option.get b.enoki in
  M.at b.machine ~delay:(Kernsim.Time.ms 5) (fun () ->
      match Enoki.Enoki_c.upgrade e (module Schedulers.Wfq) with
      | Ok _ -> ()
      | Error exn -> raise exn);
  M.run_for b.machine (Kernsim.Time.ms 50);
  (* the paper does not support replaying across an upgrade; the log must
     still parse, even if replay semantics are undefined *)
  let entries = Enoki.Replay.Private.parse (Enoki.Record.contents record) in
  check Alcotest.bool "log still parses" true (List.length entries > 0)

let () =
  Alcotest.run "machine-edge"
    [
      ( "idle-states",
        [
          Alcotest.test_case "deep idle costs more" `Quick test_deep_idle_costs_more;
          Alcotest.test_case "costs configurable" `Quick test_costs_are_configurable;
        ] );
      ("timers", [ Alcotest.test_case "ctx timers" `Quick test_ctx_timer_fires_task_tick ]);
      ("numa", [ Alcotest.test_case "threshold balancing" `Quick test_cfs_numa_threshold ]);
      ( "hints",
        [
          Alcotest.test_case "ring overflow accounting" `Quick test_hint_burst_parsed;
          Alcotest.test_case "reverse queue to inbox" `Quick test_reverse_queue_reaches_inbox;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "reset clears window" `Quick test_metrics_reset_clears_window;
          Alcotest.test_case "group partitions" `Quick test_busy_by_group_partitions;
        ] );
      ( "policy",
        [ Alcotest.test_case "switch while blocked" `Quick test_set_policy_while_blocked ] );
      ( "record",
        [ Alcotest.test_case "record across upgrade" `Quick test_record_across_upgrade_is_harmless ] );
    ]
