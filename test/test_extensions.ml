(* Tests for the extension schedulers (Nest, EDF, RT-FIFO) and the
   policy-switching / task_departed machinery they exercise. *)

module T = Kernsim.Task
module M = Kernsim.Machine

let check = Alcotest.check

let build kind = Workloads.Setup.build ~topology:Kernsim.Topology.one_socket kind

let hog ~chunk ~steps =
  let left = ref steps in
  fun (_ : T.ctx) ->
    if !left = 0 then T.exit
    else begin
      decr left;
      T.compute chunk
    end

(* periodic sparse task: brief work, long sleep *)
let sparse ~work ~sleep ~iters =
  let left = ref iters and st = ref `Work in
  fun (_ : T.ctx) ->
    match !st with
    | `Work ->
      if !left = 0 then T.exit
      else begin
        decr left;
        st := `Sleep;
        T.compute work
      end
    | `Sleep ->
      st := `Work;
      T.sleep sleep

let cores_touched (b : Workloads.Setup.built) ~group =
  ignore group;
  let mets = M.metrics b.machine in
  List.length
    (List.filter
       (fun c -> Kernsim.Accounting.busy_of_cpu mets c > Kernsim.Time.us 50)
       (List.init 8 Fun.id))

(* ---------- Nest ---------- *)

let test_nest_consolidates_sparse_load () =
  (* 3 sparse tasks on 8 cores: Nest must keep them on few warm cores
     while CFS's idle-first placement spreads them *)
  let run kind =
    let b = build kind in
    for i = 1 to 3 do
      ignore
        (M.spawn b.machine
           {
             (T.default_spec ~name:(Printf.sprintf "sparse%d" i)
                (sparse ~work:(Kernsim.Time.us 300) ~sleep:(Kernsim.Time.ms 2) ~iters:200))
             with
             T.policy = b.policy;
           })
    done;
    M.run_for b.machine (Kernsim.Time.sec 1);
    (b, cores_touched b ~group:"sparse")
  in
  let _, cfs_cores = run Workloads.Setup.Cfs in
  let nest_b, nest_cores = run (Workloads.Setup.Enoki_sched (module Schedulers.Nest)) in
  check Alcotest.bool "nest touches fewer cores" true (nest_cores <= cfs_cores);
  check Alcotest.bool "nest stays compact" true (nest_cores <= 4);
  (* and no task starved *)
  List.iter
    (fun (t : T.t) ->
      if t.T.group = "sparse" then
        check Alcotest.bool "sparse task finished under nest" true (t.T.state = T.Dead))
    (M.tasks nest_b.machine)

let test_nest_work_conserving_under_load () =
  (* 16 hogs on 8 cores: consolidation must not strand runnable work *)
  let b = build (Workloads.Setup.Enoki_sched (module Schedulers.Nest)) in
  let pids =
    List.init 16 (fun i ->
        M.spawn b.machine
          { (T.default_spec ~name:(Printf.sprintf "h%d" i)
               (hog ~chunk:(Kernsim.Time.ms 1) ~steps:10))
            with
            T.policy = b.policy })
  in
  M.run_for b.machine (Kernsim.Time.ms 100);
  List.iter
    (fun pid ->
      check Alcotest.bool "finished" true
        ((Option.get (M.find_task b.machine pid)).T.state = T.Dead))
    pids

let test_nest_unit_nest_tracking () =
  let ctx = Enoki.Ctx.inert ~nr_cpus:8 () in
  let n = Schedulers.Nest.create ctx in
  check Alcotest.(list int) "initial nest is core 0" [ 0 ] (Schedulers.Nest.Private.nest_cpus n)

(* ---------- EDF ---------- *)

let test_edf_orders_by_deadline () =
  Schedulers.Hints.register_codecs ();
  let b = build (Workloads.Setup.Enoki_sched (module Schedulers.Edf)) in
  let m = b.machine in
  let order = ref [] in
  (* a long blocker occupies cpu 0 from 0.5ms on, so all three contenders
     wake during its run and queue behind it in EDF order *)
  M.at m ~delay:(Kernsim.Time.us 500) (fun () ->
      ignore
        (M.spawn m
           { (T.default_spec ~name:"blocker" (hog ~chunk:(Kernsim.Time.ms 3) ~steps:1)) with
             T.policy = b.policy;
             affinity = Some [ 0 ];
           }));
  (* three tasks arrive in pid order but with inverted deadlines *)
  List.iteri
    (fun i relative ->
      let beh =
        let st = ref `Hint in
        fun (ctx : T.ctx) ->
          match !st with
          | `Hint ->
            st := `Nap;
            T.send_hint ctx (Schedulers.Hints.Deadline { pid = ctx.T.self; relative })
          | `Nap ->
            (* block so the wakeup opens a deadline window *)
            st := `Run;
            T.sleep (Kernsim.Time.ms 1)
          | `Run ->
            order := i :: !order;
            T.exit
      in
      ignore
        (M.spawn m
           { (T.default_spec ~name:(Printf.sprintf "dl%d" i) beh) with
             T.policy = b.policy;
             affinity = Some [ 0 ];
           }))
    [ Kernsim.Time.ms 9; Kernsim.Time.ms 5; Kernsim.Time.ms 1 ];
  M.run_for m (Kernsim.Time.ms 50);
  check Alcotest.(list int) "earliest deadline first" [ 2; 1; 0 ] (List.rev !order)

let test_edf_default_deadline_applies () =
  let ctx = Enoki.Ctx.inert () in
  let e = Schedulers.Edf.create ctx in
  check Alcotest.(option int) "no hint, no custom deadline" None
    (Schedulers.Edf.Private.relative_deadline_of e ~pid:1);
  Schedulers.Edf.parse_hint e ~pid:0
    ~hint:(Schedulers.Hints.Deadline { pid = 1; relative = Kernsim.Time.ms 3 });
  check Alcotest.(option int) "hint registered" (Some (Kernsim.Time.ms 3))
    (Schedulers.Edf.Private.relative_deadline_of e ~pid:1)

let test_edf_runs_plain_tasks () =
  let b = build (Workloads.Setup.Enoki_sched (module Schedulers.Edf)) in
  let pids =
    List.init 6 (fun i ->
        M.spawn b.machine
          { (T.default_spec ~name:(Printf.sprintf "e%d" i)
               (hog ~chunk:(Kernsim.Time.ms 1) ~steps:5))
            with
            T.policy = b.policy })
  in
  M.run_for b.machine (Kernsim.Time.ms 100);
  List.iter
    (fun pid ->
      check Alcotest.bool "finished" true
        ((Option.get (M.find_task b.machine pid)).T.state = T.Dead))
    pids

(* ---------- RT-FIFO ---------- *)

let test_rt_priority_preempts () =
  let b = build (Workloads.Setup.Enoki_sched (module Schedulers.Rt_fifo)) in
  let m = b.machine in
  (* low-prio hog starts first; a high-prio task arrives later and must
     run long before the hog completes *)
  let lo =
    M.spawn m
      { (T.default_spec ~name:"lo" (hog ~chunk:(Kernsim.Time.ms 20) ~steps:1)) with
        T.policy = b.policy;
        nice = 10;
        affinity = Some [ 0 ];
      }
  in
  let hi_done = ref (-1) in
  M.at m ~delay:(Kernsim.Time.ms 2) (fun () ->
      ignore
        (M.spawn m
           {
             (T.default_spec ~name:"hi" (fun (ctx : T.ctx) ->
                  if !hi_done >= 0 then T.exit
                  else begin
                    hi_done := ctx.T.now;
                    T.compute (Kernsim.Time.ms 1)
                  end))
             with
             T.policy = b.policy;
             nice = -5;
             affinity = Some [ 0 ];
           }));
  M.run_for m (Kernsim.Time.ms 60);
  check Alcotest.bool "high-prio started promptly (preempted the hog)" true
    (!hi_done >= 0 && !hi_done < Kernsim.Time.ms 4);
  check Alcotest.bool "low-prio still finished" true
    ((Option.get (M.find_task m lo)).T.state = T.Dead)

let test_rt_fifo_within_priority () =
  let b = build (Workloads.Setup.Enoki_sched (module Schedulers.Rt_fifo)) in
  let m = b.machine in
  let order = ref [] in
  (* an initial blocker so contenders queue *)
  ignore
    (M.spawn m
       { (T.default_spec ~name:"first" (hog ~chunk:(Kernsim.Time.ms 1) ~steps:1)) with
         T.policy = b.policy;
         affinity = Some [ 0 ];
       });
  for i = 1 to 4 do
    let beh =
      let st = ref `Go in
      fun (_ : T.ctx) ->
        match !st with
        | `Go ->
          order := i :: !order;
          st := `End;
          T.compute (Kernsim.Time.us 100)
        | `End -> T.exit
    in
    ignore
      (M.spawn m
         { (T.default_spec ~name:(Printf.sprintf "fifo%d" i) beh) with
           T.policy = b.policy;
           affinity = Some [ 0 ];
         })
  done;
  M.run_for m (Kernsim.Time.ms 20);
  check Alcotest.(list int) "arrival order preserved" [ 1; 2; 3; 4 ] (List.rev !order)

let test_rt_starves_low_priority_under_overload () =
  (* defining behaviour: a busy high-priority task starves a low one *)
  let b = build (Workloads.Setup.Enoki_sched (module Schedulers.Rt_fifo)) in
  let m = b.machine in
  ignore
    (M.spawn m
       { (T.default_spec ~name:"spin-hi" (fun _ -> T.compute (Kernsim.Time.ms 1))) with
         T.policy = b.policy;
         nice = -10;
         affinity = Some [ 0 ];
       });
  let lo =
    M.spawn m
      { (T.default_spec ~name:"lo" (hog ~chunk:(Kernsim.Time.ms 1) ~steps:1)) with
        T.policy = b.policy;
        nice = 10;
        affinity = Some [ 0 ];
      }
  in
  M.run_for m (Kernsim.Time.ms 100);
  let lo_task = Option.get (M.find_task m lo) in
  check Alcotest.bool "low-prio starved" true (lo_task.T.state <> T.Dead);
  check Alcotest.int "got zero cpu" 0 lo_task.T.sum_exec

(* ---------- policy switching / task_departed ---------- *)

let test_set_policy_moves_between_classes () =
  let b = build (Workloads.Setup.Enoki_sched (module Schedulers.Wfq)) in
  let m = b.machine in
  let pid =
    M.spawn m
      { (T.default_spec ~name:"migrant" (hog ~chunk:(Kernsim.Time.ms 1) ~steps:40)) with
        T.policy = b.policy }
  in
  M.run_for m (Kernsim.Time.ms 5);
  (* move it to CFS mid-run: the Enoki class sees task_departed *)
  M.Private.set_policy m ~pid ~policy:b.cfs_policy;
  M.run_for m (Kernsim.Time.ms 100);
  let task = Option.get (M.find_task m pid) in
  check Alcotest.int "now on cfs" b.cfs_policy task.T.policy;
  check Alcotest.bool "finished under cfs" true (task.T.state = T.Dead);
  match b.enoki with
  | Some e -> check Alcotest.int "no violations through departure" 0 (Enoki.Enoki_c.violations e)
  | None -> ()

let test_set_policy_roundtrip () =
  let b = build (Workloads.Setup.Enoki_sched (module Schedulers.Fifo_sched)) in
  let m = b.machine in
  let pid =
    M.spawn m
      { (T.default_spec ~name:"yoyo" (hog ~chunk:(Kernsim.Time.ms 1) ~steps:60)) with
        T.policy = b.policy }
  in
  for i = 1 to 4 do
    M.at m ~delay:(i * Kernsim.Time.ms 8) (fun () ->
        let task = Option.get (M.find_task m pid) in
        if task.T.state <> T.Dead then
          M.Private.set_policy m ~pid ~policy:(if task.T.policy = 0 then 1 else 0))
  done;
  M.run_for m (Kernsim.Time.ms 200);
  check Alcotest.bool "survived repeated policy flips" true
    ((Option.get (M.find_task m pid)).T.state = T.Dead)

(* ---------- wfq no-steal ablation variant ---------- *)

let test_wfq_nosteal_still_correct () =
  let module NS = struct
    include Schedulers.Wfq
    let name = "wfq-nosteal"
    let balance _ ~cpu:_ = -1
  end in
  let b = build (Workloads.Setup.Enoki_sched (module NS)) in
  let pids =
    List.init 8 (fun i ->
        M.spawn b.machine
          { (T.default_spec ~name:(Printf.sprintf "n%d" i)
               (hog ~chunk:(Kernsim.Time.ms 1) ~steps:10))
            with
            T.policy = b.policy })
  in
  M.run_for b.machine (Kernsim.Time.ms 200);
  List.iter
    (fun pid ->
      check Alcotest.bool "finished without stealing" true
        ((Option.get (M.find_task b.machine pid)).T.state = T.Dead))
    pids

let () =
  Alcotest.run "extensions"
    [
      ( "nest",
        [
          Alcotest.test_case "consolidates sparse load" `Quick test_nest_consolidates_sparse_load;
          Alcotest.test_case "work conserving" `Quick test_nest_work_conserving_under_load;
          Alcotest.test_case "nest tracking" `Quick test_nest_unit_nest_tracking;
        ] );
      ( "edf",
        [
          Alcotest.test_case "orders by deadline" `Quick test_edf_orders_by_deadline;
          Alcotest.test_case "deadline hints" `Quick test_edf_default_deadline_applies;
          Alcotest.test_case "runs plain tasks" `Quick test_edf_runs_plain_tasks;
        ] );
      ( "rt-fifo",
        [
          Alcotest.test_case "priority preempts" `Quick test_rt_priority_preempts;
          Alcotest.test_case "fifo within priority" `Quick test_rt_fifo_within_priority;
          Alcotest.test_case "starves low prio" `Quick test_rt_starves_low_priority_under_overload;
        ] );
      ( "policy-switch",
        [
          Alcotest.test_case "enoki to cfs" `Quick test_set_policy_moves_between_classes;
          Alcotest.test_case "roundtrip flips" `Quick test_set_policy_roundtrip;
        ] );
      ( "ablation-variants",
        [ Alcotest.test_case "wfq no-steal correct" `Quick test_wfq_nosteal_still_correct ] );
    ]
