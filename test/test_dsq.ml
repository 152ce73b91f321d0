(* Tests for lib/dsq: the dispatch-queue structure itself (FIFO stability,
   vtime ordering, silent transfer primitives), the scx policy family built
   on Dsq_sched.Make (sanitizer-clean runs, record/replay stream
   equivalence, live-upgrade round trips, cross-policy rejection), and the
   dual-queue promotion bound via the exposed pick_source decision. *)

module T = Kernsim.Task
module M = Kernsim.Machine
module Sched = Enoki.Schedulable

let check = Alcotest.check

let dsq_schedulers : (string * (module Enoki.Sched_trait.S)) list =
  List.filter_map
    (fun name ->
      match Schedulers.Registry.find name with
      | Some e ->
        Option.map (fun m -> (name, m)) (Schedulers.Registry.enoki_module e)
      | None -> None)
    Schedulers.Registry.dsq_names

let inert_queue ?mode name =
  Enoki.Lock.set_passthrough_mode ();
  Dsq.create ?mode (Enoki.Ctx.inert ()) name

let token ?(cpu = 0) pid = Sched.Private.create ~pid ~cpu ~gen:1

(* ---------- queue unit tests ---------- *)

let test_fifo_basic () =
  let q = inert_queue "t" in
  check Alcotest.bool "empty" true (Dsq.is_empty q);
  List.iter (fun pid -> Dsq.insert q (token pid)) [ 3; 1; 2 ];
  check Alcotest.int "length" 3 (Dsq.length q);
  check Alcotest.int "inserts counted" 3 (Dsq.inserts q);
  let order = List.map (fun (e : Dsq.entry) -> e.Dsq.pid) (Dsq.to_list q) in
  check Alcotest.(list int) "FIFO order" [ 3; 1; 2 ] order;
  check Alcotest.(option int) "peek is head" (Some 3)
    (Option.map (fun (e : Dsq.entry) -> e.Dsq.pid) (Dsq.peek q));
  let consumed = ref [] in
  let rec drain () =
    match Dsq.consume q with
    | Some e ->
      consumed := e.Dsq.pid :: !consumed;
      drain ()
    | None -> ()
  in
  drain ();
  check Alcotest.(list int) "consume order" [ 3; 1; 2 ] (List.rev !consumed);
  check Alcotest.int "consumes counted" 3 (Dsq.consumes q)

let test_vtime_ordering () =
  let q = inert_queue ~mode:Dsq.Vtime "v" in
  List.iter
    (fun (pid, vt) -> Dsq.insert q ~vtime:vt (token pid))
    [ (1, 30); (2, 10); (3, 20); (4, 10) ];
  let order = List.map (fun (e : Dsq.entry) -> e.Dsq.pid) (Dsq.to_list q) in
  (* min vtime first; the two vtime-10 entries keep insertion order *)
  check Alcotest.(list int) "vtime order, stable ties" [ 2; 4; 3; 1 ] order

let test_take_for_and_silent_moves () =
  let q = inert_queue "cpus" in
  Dsq.insert q (token ~cpu:0 1);
  Dsq.insert q (token ~cpu:1 2);
  Dsq.insert q (token ~cpu:0 3);
  (* take_for skips entries licensed for other cpus *)
  let e = Option.get (Dsq.take_for q ~cpu:1) in
  check Alcotest.int "took the cpu-1 entry" 2 e.Dsq.pid;
  check Alcotest.(option Alcotest.int) "no more cpu-1 work" None
    (Option.map (fun (e : Dsq.entry) -> e.Dsq.pid) (Dsq.take_for q ~cpu:1));
  (* silent transfer: put appends, put_front restores the head, neither
     counts as an insert *)
  let inserts_before = Dsq.inserts q in
  let local = inert_queue "local" in
  Dsq.put local e;
  check Alcotest.int "moved entry keeps its stamp" e.Dsq.inserted_at
    (Option.get (Dsq.peek local)).Dsq.inserted_at;
  let head = Option.get (Dsq.consume q) in
  Dsq.put_front q head;
  check Alcotest.(option int) "put_front restores the head" (Some head.Dsq.pid)
    (Option.map (fun (e : Dsq.entry) -> e.Dsq.pid) (Dsq.peek q));
  check Alcotest.int "silent ops are not inserts" inserts_before (Dsq.inserts q);
  (* remove by pid from the middle *)
  let r = Option.get (Dsq.remove q ~pid:3) in
  check Alcotest.int "removed pid 3" 3 r.Dsq.pid;
  check Alcotest.int "one entry left" 1 (Dsq.length q)

(* ---------- queue properties ---------- *)

let prop_fifo_stable n =
  let n = n mod 100 in
  let q = inert_queue "p" in
  for pid = 0 to n - 1 do
    Dsq.insert q (token pid)
  done;
  let rec drain acc =
    match Dsq.consume q with Some e -> drain (e.Dsq.pid :: acc) | None -> List.rev acc
  in
  drain [] = List.init n Fun.id

let prop_vtime_monotone vtimes =
  let q = inert_queue ~mode:Dsq.Vtime "p" in
  List.iteri (fun pid vt -> Dsq.insert q ~vtime:vt (token pid)) vtimes;
  let rec drain acc =
    match Dsq.consume q with Some e -> drain (e :: acc) | None -> List.rev acc
  in
  let out = drain [] in
  List.length out = List.length vtimes
  &&
  let rec sorted = function
    | (a : Dsq.entry) :: (b : Dsq.entry) :: rest ->
      (* consume order is non-decreasing vtime, insertion order on ties *)
      (a.Dsq.vtime < b.Dsq.vtime || (a.Dsq.vtime = b.Dsq.vtime && a.Dsq.pid < b.Dsq.pid))
      && sorted (b :: rest)
    | _ -> true
  in
  sorted out

(* The dual-queue promotion bound, on the pure decision function: replay
   the adapter's streak updates over an arbitrary low_queued history and
   check the low queue never waits through more than [promote_after]
   consecutive high dispatches. *)
let prop_promotion_bound history =
  let streak = ref 0 and waited = ref 0 and ok = ref true in
  List.iter
    (fun low_queued ->
      match Schedulers.Scx_prio_dq.pick_source ~streak:!streak ~low_queued with
      | `Low ->
        if not low_queued then ok := false;
        streak := 0;
        waited := 0
      | `High ->
        if low_queued then begin
          incr streak;
          incr waited;
          if !waited > Schedulers.Scx_prio_dq.promote_after then ok := false
        end
        else waited := 0)
    history;
  !ok

(* ---------- the policy family, end to end ---------- *)

let build_sched ?record ?tracer sched =
  Workloads.Setup.build ?record ?tracer ~topology:Kernsim.Topology.one_socket
    (Workloads.Setup.Enoki_sched sched)

let test_registry_lists_dsq_family () =
  check Alcotest.int "three DSQ policies" 3 (List.length dsq_schedulers);
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ " in --sched vocabulary") true
        (List.mem name Schedulers.Registry.names))
    Schedulers.Registry.dsq_names

let test_policies_run_sanitizer_clean () =
  List.iter
    (fun (name, sched) ->
      let nr_cpus = Kernsim.Topology.nr_cpus Kernsim.Topology.one_socket in
      let tracer = Trace.Tracer.create ~nr_cpus () in
      let s = Trace.Sanitizer.create ~nr_cpus () in
      Trace.Sanitizer.attach s tracer;
      let b = build_sched ~tracer sched in
      let r = Workloads.Pipe_bench.run b ~messages:2_000 () in
      check Alcotest.bool (name ^ ": pipe completed") true r.Workloads.Pipe_bench.completed;
      check Alcotest.int
        (name ^ ": no framework violations")
        0
        (Enoki.Enoki_c.violations (Option.get b.Workloads.Setup.enoki));
      if not (Trace.Sanitizer.ok s) then
        Alcotest.failf "%s: sanitizer found violations:\n%s" name
          (Trace.Sanitizer.report_string s))
    dsq_schedulers

let test_record_replay_stream_equivalence () =
  (* as test_enoki's cross-scheduler check: the in-memory and streamed
     logs of the same deterministic run are byte-identical, and the log
     replays clean against the same policy *)
  List.iter
    (fun (name, sched) ->
      Enoki.Lock.set_passthrough_mode ();
      let run_with record =
        let b = build_sched ~record sched in
        ignore (Workloads.Pipe_bench.run b ~messages:500 ())
      in
      let mem = Enoki.Record.create () in
      run_with mem;
      let mem_log = Enoki.Record.contents mem in
      let path = Filename.temp_file "enoki-dsq" ".rec" in
      let file = Enoki.Record.create_file ~path () in
      run_with file;
      Enoki.Record.close file;
      let file_log = Enoki.Record.load_file ~path in
      Sys.remove path;
      check Alcotest.bool (name ^ ": log non-empty") true (Enoki.Replay.parse file_log <> []);
      check Alcotest.string (name ^ ": memory and file logs byte-identical") mem_log file_log;
      let report = Enoki.Replay.run sched ~log:file_log in
      check
        Alcotest.(list (pair int string))
        (name ^ ": streamed log replays clean")
        [] report.Enoki.Replay.mismatches)
    dsq_schedulers

let hog ~chunk ~steps =
  let left = ref steps in
  fun (_ : T.ctx) ->
    if !left = 0 then T.Exit
    else begin
      decr left;
      T.Compute chunk
    end

let test_live_upgrade_round_trip () =
  List.iter
    (fun (name, sched) ->
      let b = build_sched sched in
      let pids =
        List.init 6 (fun i ->
            M.spawn b.Workloads.Setup.machine
              { (T.default_spec ~name:(Printf.sprintf "h%d" i)
                   (hog ~chunk:(Kernsim.Time.ms 1) ~steps:30))
                with
                T.policy = b.Workloads.Setup.policy })
      in
      let e = Option.get b.Workloads.Setup.enoki in
      let stats = ref None in
      M.at b.Workloads.Setup.machine ~delay:(Kernsim.Time.ms 10) (fun () ->
          match Enoki.Enoki_c.upgrade e sched with
          | Ok s -> stats := Some s
          | Error exn -> raise exn);
      M.run_for b.Workloads.Setup.machine (Kernsim.Time.ms 200);
      (match !stats with
      | Some s ->
        check Alcotest.bool (name ^ ": state transferred") true s.Enoki.Upgrade.transferred;
        check Alcotest.bool (name ^ ": tasks carried") true (s.Enoki.Upgrade.tasks_carried >= 6)
      | None -> Alcotest.failf "%s: upgrade did not run" name);
      check Alcotest.int (name ^ ": no violations across upgrade") 0
        (Enoki.Enoki_c.violations e);
      List.iter
        (fun pid ->
          check Alcotest.bool (name ^ ": task survived upgrade") true
            ((Option.get (M.find_task b.Workloads.Setup.machine pid)).T.state = T.Dead))
        pids)
    dsq_schedulers

let expect_incompatible ~from_name from_sched to_sched =
  let b = build_sched from_sched in
  ignore
    (M.spawn b.Workloads.Setup.machine
       { (T.default_spec ~name:"h" (hog ~chunk:(Kernsim.Time.ms 1) ~steps:50)) with
         T.policy = b.Workloads.Setup.policy });
  M.run_for b.Workloads.Setup.machine (Kernsim.Time.ms 5);
  let e = Option.get b.Workloads.Setup.enoki in
  (match Enoki.Enoki_c.upgrade e to_sched with
  | Error (Enoki.Upgrade.Incompatible _) -> ()
  | Error exn -> raise exn
  | Ok _ -> Alcotest.failf "%s: incompatible upgrade must be rejected" from_name);
  check Alcotest.string (from_name ^ " still registered") from_name
    (Enoki.Enoki_c.scheduler_name e);
  (* the rejected upgrade must leave the machine fully functional *)
  M.run_for b.Workloads.Setup.machine (Kernsim.Time.ms 200);
  check Alcotest.int (from_name ^ ": no tasks alive") 0
    (List.length
       (List.filter
          (fun (t : T.t) -> t.T.state <> T.Dead)
          (M.tasks b.Workloads.Setup.machine)))

let test_cross_policy_upgrade_rejected () =
  (* a Dsq_state transfer names its policy: another DSQ policy must refuse
     it, as must a non-DSQ scheduler (and vice versa) *)
  expect_incompatible ~from_name:"scx-simple" (module Schedulers.Scx_simple : Enoki.Sched_trait.S)
    (module Schedulers.Scx_rr : Enoki.Sched_trait.S);
  expect_incompatible ~from_name:"scx-simple" (module Schedulers.Scx_simple : Enoki.Sched_trait.S)
    (module Schedulers.Wfq : Enoki.Sched_trait.S);
  expect_incompatible ~from_name:"wfq" (module Schedulers.Wfq : Enoki.Sched_trait.S)
    (module Schedulers.Scx_prio_dq : Enoki.Sched_trait.S)

(* ---------- suite ---------- *)

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let () =
  Alcotest.run "dsq"
    [
      ( "queue",
        [
          Alcotest.test_case "fifo basics" `Quick test_fifo_basic;
          Alcotest.test_case "vtime ordering" `Quick test_vtime_ordering;
          Alcotest.test_case "take_for and silent moves" `Quick test_take_for_and_silent_moves;
          qtest "FIFO consume order is insert order" QCheck.small_nat prop_fifo_stable;
          qtest "vtime consume order is monotone, ties stable"
            QCheck.(list small_nat)
            prop_vtime_monotone;
        ] );
      ( "prio-dq",
        [
          qtest ~count:200 "promotion bounds low-queue wait"
            QCheck.(list bool)
            prop_promotion_bound;
        ] );
      ( "policies",
        [
          Alcotest.test_case "registry lists the family" `Quick test_registry_lists_dsq_family;
          Alcotest.test_case "sanitizer-clean pipe runs" `Quick test_policies_run_sanitizer_clean;
          Alcotest.test_case "record/replay stream equivalence" `Quick
            test_record_replay_stream_equivalence;
          Alcotest.test_case "live upgrade round trip" `Quick test_live_upgrade_round_trip;
          Alcotest.test_case "cross-policy upgrade rejected" `Quick
            test_cross_policy_upgrade_rejected;
        ] );
    ]
