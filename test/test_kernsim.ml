(* Integration tests for the kernel simulator with the native CFS class. *)

module T = Kernsim.Task
module M = Kernsim.Machine

type T.hint += Probe_hint | Tagged of int

let check = Alcotest.check

let make_machine ?(topology = Kernsim.Topology.one_socket) () =
  M.create ~topology ~classes:[ Kernsim.Cfs.factory () ] ()

(* A task that computes [compute] then exits. *)
let one_shot compute =
  let done_ = ref false in
  fun (_ : T.ctx) ->
    if !done_ then T.exit
    else begin
      done_ := true;
      T.compute compute
    end

(* A task computing [chunk] per step, [steps] times. *)
let hog ~chunk ~steps =
  let left = ref steps in
  fun (_ : T.ctx) ->
    if !left = 0 then T.exit
    else begin
      decr left;
      T.compute chunk
    end

let test_sim_event_order () =
  let sim = Kernsim.Sim.create () in
  let log = ref [] in
  Kernsim.Sim.at sim ~time:20 (fun () -> log := 2 :: !log);
  Kernsim.Sim.at sim ~time:10 (fun () -> log := 1 :: !log);
  Kernsim.Sim.at sim ~time:20 (fun () -> log := 3 :: !log);
  Kernsim.Sim.run sim;
  check Alcotest.(list int) "time then insertion order" [ 1; 2; 3 ] (List.rev !log);
  check Alcotest.int "clock at last event" 20 (Kernsim.Sim.now sim)

let test_sim_run_until () =
  let sim = Kernsim.Sim.create () in
  let fired = ref 0 in
  Kernsim.Sim.at sim ~time:10 (fun () -> incr fired);
  Kernsim.Sim.at sim ~time:30 (fun () -> incr fired);
  Kernsim.Sim.run_until sim ~until:20;
  check Alcotest.int "only first fired" 1 !fired;
  check Alcotest.int "clock advanced to until" 20 (Kernsim.Sim.now sim)

(* A negative delay is a caller bug (broken cost model) and must fail
   loudly instead of being clamped into a silent same-tick reorder; zero
   stays legal. *)
let test_sim_negative_delay () =
  let sim = Kernsim.Sim.create () in
  let fired = ref 0 in
  Alcotest.check_raises "after rejects negative" (Invalid_argument "Sim.after: negative delay")
    (fun () -> Kernsim.Sim.after sim ~delay:(-1) (fun () -> incr fired));
  let tm = Kernsim.Sim.timer sim (fun () -> incr fired) in
  Alcotest.check_raises "arm_after rejects negative"
    (Invalid_argument "Sim.arm_after: negative delay") (fun () ->
      Kernsim.Sim.arm_after sim tm ~delay:(-7));
  (* zero-delay events are legal and run at the current clock *)
  Kernsim.Sim.after sim ~delay:0 (fun () -> incr fired);
  Kernsim.Sim.arm_after sim tm ~delay:0;
  Kernsim.Sim.run sim;
  check Alcotest.int "zero-delay events fired" 2 !fired;
  check Alcotest.int "clock unmoved" 0 (Kernsim.Sim.now sim)

(* Kernsim.Sim must produce the reference heap's dispatch order, bit for
   bit, under arbitrary arm -> re-arm -> cancel interleavings, including
   operations performed from inside event callbacks and across run_until
   segment boundaries.  The script is generated once from the seed and
   replayed against each queue.  Every script also carries:
   - a flood of one-shots deeper than 4096 pending events;
   - delays past 2^36;
   - callbacks that arm a timer at the current time, or schedule a
     same-time event that cancels one. *)
let prop_sim_matches_reference seed =
  let rng = Stats.Prng.create ~seed in
  let script =
    List.init 64 (fun _ ->
        let at = Stats.Prng.int rng 400 and j = Stats.Prng.int rng 8 in
        let action = Stats.Prng.int rng 5 in
        let far = if Stats.Prng.int rng 8 = 0 then 1 lsl 36 else 0 in
        (at, j, action, far + Stats.Prng.int rng 600))
  in
  let flood = List.init 4200 (fun _ -> Stats.Prng.int rng 1000) in
  let run (type s) (module Sim : Reference.Sim.S with type t = s) (pending : s -> int) =
    let sim = Sim.create () in
    let log = ref [] in
    let timers = Array.init 8 (fun i -> Sim.timer sim (fun () -> log := (1000 + i) :: !log)) in
    List.iteri
      (fun k (at, j, action, d) ->
        Sim.at sim ~time:at (fun () ->
            log := -(k + 1) :: !log;
            match action with
            | 0 -> Sim.arm_after sim timers.(j) ~delay:d
            | 1 -> Sim.cancel sim timers.(j)
            | 2 -> Sim.after sim ~delay:d (fun () -> log := (2000 + k) :: !log)
            | 3 -> Sim.arm_after sim timers.(j) ~delay:0
            | _ ->
              Sim.after sim ~delay:0 (fun () ->
                  log := (3000 + k) :: !log;
                  Sim.cancel sim timers.(j))))
      script;
    List.iteri
      (fun k at -> Sim.at sim ~time:at (fun () -> log := (10_000 + k) :: !log))
      flood;
    let deepest = pending sim in
    (* chunked bounded runs exercise the until-gating, then drain *)
    Sim.run_until sim ~until:300;
    Sim.run_until sim ~until:700;
    Sim.run_until sim ~until:((1 lsl 36) + 300);
    Sim.run sim;
    (List.rev !log, Sim.now sim, Sim.dispatched sim, deepest)
  in
  let s = run (module Kernsim.Sim) Kernsim.Sim.Private.pending
  and h = run (module Reference.Sim) Reference.Sim.pending in
  if s <> h then
    QCheck.Test.fail_reportf "Sim and reference diverged on seed %d (Sim %d events, reference %d events)" seed
      (match s with _, _, n, _ -> n)
      (match h with _, _, n, _ -> n);
  let _, _, _, deepest = s in
  deepest > 4096

(* The default queue allocates nothing once its slot columns have grown:
   one-shots fired and re-scheduled from their own callbacks, and a timer
   armed, cancelled, re-armed and fired, over more than 10k dispatches.
   Counted with [Profile.allocated_bytes], which adds the direct major
   allocations a grown column would make to the exact minor words;
   [empty] is the reading's own cost. *)
let test_sim_no_alloc () =
  let sim = Kernsim.Sim.create () in
  let tm = Kernsim.Sim.timer sim ignore in
  let rec tick () =
    Kernsim.Sim.arm_at sim tm ~time:(Kernsim.Sim.now sim + 50);
    Kernsim.Sim.cancel sim tm;
    Kernsim.Sim.arm_at sim tm ~time:(Kernsim.Sim.now sim);
    Kernsim.Sim.after sim ~delay:10 tick
  in
  for i = 0 to 63 do
    Kernsim.Sim.at sim ~time:i tick
  done;
  Kernsim.Sim.run_until sim ~until:1_000;
  let empty =
    let a = Profile.allocated_bytes () in
    Profile.allocated_bytes () -. a
  in
  let n0 = Kernsim.Sim.dispatched sim and before = Profile.allocated_bytes () in
  Kernsim.Sim.run_until sim ~until:3_000;
  let bytes = Profile.allocated_bytes () -. before -. empty in
  check Alcotest.bool "rounds ran" true (Kernsim.Sim.dispatched sim - n0 > 10_000);
  check (Alcotest.float 0.0) "bytes allocated" 0.0 bytes

let test_single_task_runs_and_exits () =
  let m = make_machine () in
  let pid = M.spawn m (T.default_spec ~name:"solo" (one_shot (Kernsim.Time.ms 5))) in
  M.run_for m (Kernsim.Time.ms 20);
  let task = Option.get (M.find_task m pid) in
  check Alcotest.bool "task exited" true (task.T.state = T.Dead);
  check Alcotest.bool "consumed ~5ms cpu"
    true
    (abs (task.T.sum_exec - Kernsim.Time.ms 5) < Kernsim.Time.us 10)

let test_tasks_spread_across_cores () =
  let m = make_machine () in
  let pids =
    List.init 8 (fun i ->
        M.spawn m (T.default_spec ~name:(Printf.sprintf "hog%d" i) (one_shot (Kernsim.Time.ms 50))))
  in
  M.run_for m (Kernsim.Time.ms 10);
  let cpus = List.map (fun pid -> (Option.get (M.find_task m pid)).T.cpu) pids in
  let distinct = List.sort_uniq Int.compare cpus in
  check Alcotest.int "8 hogs on 8 distinct cores" 8 (List.length distinct)

let test_fair_sharing_one_core () =
  (* two equal hogs pinned to one core must each get ~half the cpu *)
  let m = make_machine () in
  let spec name =
    { (T.default_spec ~name (hog ~chunk:(Kernsim.Time.ms 1) ~steps:200)) with T.affinity = Some [ 0 ] }
  in
  let a = M.spawn m (spec "a") and b = M.spawn m (spec "b") in
  M.run_for m (Kernsim.Time.ms 100);
  let ta = Option.get (M.find_task m a) and tb = Option.get (M.find_task m b) in
  let ra = float_of_int ta.T.sum_exec and rb = float_of_int tb.T.sum_exec in
  check Alcotest.bool "both ran" true (ra > 0.0 && rb > 0.0);
  let ratio = ra /. rb in
  if ratio < 0.8 || ratio > 1.25 then
    Alcotest.failf "unfair split: %f vs %f (ratio %f)" ra rb ratio

let test_weighted_sharing () =
  (* nice 0 vs nice 5: weights 1024 vs 335, expect ~3x the cpu time *)
  let m = make_machine () in
  let spec name nice =
    {
      (T.default_spec ~name (hog ~chunk:(Kernsim.Time.ms 1) ~steps:500)) with
      T.affinity = Some [ 0 ];
      nice;
    }
  in
  let a = M.spawn m (spec "hi" 0) and b = M.spawn m (spec "lo" 5) in
  M.run_for m (Kernsim.Time.ms 200);
  let ta = Option.get (M.find_task m a) and tb = Option.get (M.find_task m b) in
  let ratio = float_of_int ta.T.sum_exec /. float_of_int (max 1 tb.T.sum_exec) in
  if ratio < 2.0 || ratio > 4.5 then
    Alcotest.failf "weighted split off: %d vs %d (ratio %f, want ~3)" ta.T.sum_exec tb.T.sum_exec
      ratio

let test_block_wake_pingpong () =
  (* two tasks bouncing a message: both must make progress and block/wake
     counts must match *)
  let m = make_machine () in
  let ch_ab = M.new_chan m and ch_ba = M.new_chan m in
  let iters = 100 in
  let mk_ping () =
    let n = ref 0 and st = ref `Send in
    fun (_ : T.ctx) ->
      match !st with
      | `Send ->
        st := `Wait;
        T.wake ch_ab
      | `Wait ->
        st := `Step;
        T.block ch_ba
      | `Step ->
        incr n;
        if !n >= iters then T.exit
        else begin
          st := `Wait;
          T.wake ch_ab
        end
  in
  let mk_pong () =
    let n = ref 0 and st = ref `Wait in
    fun (_ : T.ctx) ->
      match !st with
      | `Wait ->
        if !n >= iters then T.exit
        else begin
          st := `Reply;
          T.block ch_ab
        end
      | `Reply ->
        incr n;
        st := `Wait;
        T.wake ch_ba
  in
  let a = M.spawn m (T.default_spec ~name:"ping" (mk_ping ())) in
  let b = M.spawn m (T.default_spec ~name:"pong" (mk_pong ())) in
  M.run_for m (Kernsim.Time.sec 2);
  let ta = Option.get (M.find_task m a) and tb = Option.get (M.find_task m b) in
  check Alcotest.bool "ping exited" true (ta.T.state = T.Dead);
  check Alcotest.bool "pong exited" true (tb.T.state = T.Dead)

let test_sleep_wakes_up () =
  let m = make_machine () in
  let woke_at = ref (-1) in
  let beh =
    let st = ref `Sleep in
    fun (ctx : T.ctx) ->
      match !st with
      | `Sleep ->
        st := `After;
        T.sleep (Kernsim.Time.ms 3)
      | `After ->
        woke_at := ctx.T.now;
        T.exit
  in
  ignore (M.spawn m (T.default_spec ~name:"sleeper" beh));
  M.run_for m (Kernsim.Time.ms 10);
  check Alcotest.bool "woke after ~3ms" true (!woke_at >= Kernsim.Time.ms 3);
  check Alcotest.bool "woke promptly" true (!woke_at < Kernsim.Time.ms 4)

let test_spawn_action () =
  let m = make_machine () in
  let child_ran = ref false in
  let child_beh (_ : T.ctx) =
    child_ran := true;
    T.exit
  in
  let parent =
    let st = ref `Spawn in
    fun (ctx : T.ctx) ->
      match !st with
      | `Spawn ->
        st := `Done;
        T.spawn ctx (T.default_spec ~name:"child" child_beh)
      | `Done -> T.exit
  in
  ignore (M.spawn m (T.default_spec ~name:"parent" parent));
  M.run_for m (Kernsim.Time.ms 5);
  check Alcotest.bool "child ran" true !child_ran

(* ---------- action encoding ---------- *)

let arg_ctors = [ (T.K_compute, T.compute); (T.K_block, T.block); (T.K_wake, T.wake); (T.K_sleep, T.sleep) ]

let in_range =
  let lo = T.Private.min_arg and hi = T.Private.max_arg in
  QCheck.(
    make ~print:string_of_int
      (Gen.oneof
         [ Gen.int_range lo hi; Gen.oneofl [ 0; 1; -1; lo; hi; lo + 1; hi - 1 ]; Gen.small_signed_int ]))

let out_of_range =
  let lo = T.Private.min_arg and hi = T.Private.max_arg in
  QCheck.(
    make ~print:string_of_int
      (Gen.oneof
         [
           Gen.int_range (hi + 1) max_int;
           Gen.int_range min_int (lo - 1);
           Gen.oneofl [ hi + 1; lo - 1; max_int; min_int ];
         ]))

(* every kind with an argument reads back its kind and the argument, sign
   included, and no two kinds share an encoding *)
let prop_action_round_trip v =
  List.for_all (fun (k, mk) -> T.kind (mk v) = k && T.arg (mk v) = v) arg_ctors
  && List.length (List.sort_uniq compare (List.map (fun (_, mk) -> ((mk v : T.action) :> int)) arg_ctors)) = 4

let prop_action_out_of_range v =
  List.for_all
    (fun (_, mk) -> match mk v with _ -> false | exception Invalid_argument _ -> true)
    arg_ctors

let test_action_payload_kinds () =
  let ctx = T.make_ctx () in
  check Alcotest.bool "yield" true (T.kind T.yield = T.K_yield);
  check Alcotest.bool "exit" true (T.kind T.exit = T.K_exit);
  check Alcotest.bool "send_hint" true (T.kind (T.send_hint ctx Probe_hint) = T.K_send_hint);
  check Alcotest.bool "hint in its slot" true (ctx.T.hint_out = Some Probe_hint);
  let spec = T.default_spec ~name:"x" (fun _ -> T.exit) in
  check Alcotest.bool "spawn" true (T.kind (T.spawn ctx spec) = T.K_spawn);
  check Alcotest.bool "spec in its slot" true
    (match ctx.T.spawn_out with Some s -> s == spec | None -> false)

(* One behaviour answers send_hint, spawn and compute in a row, twice:
   each payload reaches the kernel before the next step, in order. *)
let test_payload_actions_in_order () =
  let log = ref [] in
  let recording ops =
    let cl = Kernsim.Cfs.factory () ops in
    {
      cl with
      Kernsim.Sched_class.deliver_hint =
        (fun task h ->
          (match h with Tagged n -> log := Printf.sprintf "hint %d" n :: !log | _ -> ());
          cl.deliver_hint task h);
      task_new =
        (fun (task : T.t) ~cpu ->
          if task.T.name <> "parent" then log := ("new " ^ task.T.name) :: !log;
          cl.task_new task ~cpu);
    }
  in
  let m = M.create ~topology:Kernsim.Topology.one_socket ~classes:[ recording ] () in
  let child (_ : T.ctx) = T.exit in
  let parent =
    let step = ref 0 in
    fun (ctx : T.ctx) ->
      incr step;
      match !step with
      | 1 | 4 -> T.send_hint ctx (Tagged !step)
      | 2 | 5 -> T.spawn ctx (T.default_spec ~name:(Printf.sprintf "child%d" !step) child)
      | 3 | 6 ->
        log := Printf.sprintf "compute at step %d" !step :: !log;
        T.compute (Kernsim.Time.us 10)
      | _ -> T.exit
  in
  ignore (M.spawn m (T.default_spec ~name:"parent" parent));
  M.run_for m (Kernsim.Time.ms 5);
  check
    Alcotest.(list string)
    "payloads in order"
    [ "hint 1"; "new child2"; "compute at step 3"; "hint 4"; "new child5"; "compute at step 6" ]
    (List.rev !log)

let test_yield_alternates () =
  let m = make_machine () in
  let order = ref [] in
  let mk tag =
    let n = ref 0 in
    fun (_ : T.ctx) ->
      if !n >= 3 then T.exit
      else begin
        incr n;
        order := tag :: !order;
        T.yield
      end
  in
  let spec name beh = { (T.default_spec ~name beh) with T.affinity = Some [ 0 ] } in
  ignore (M.spawn m (spec "a" (mk "a")));
  ignore (M.spawn m (spec "b" (mk "b")));
  M.run_for m (Kernsim.Time.ms 5);
  let seq = List.rev !order in
  check Alcotest.int "both ran 3 times" 6 (List.length seq);
  check Alcotest.bool "interleaved" true (List.exists (( = ) "b") seq)

let test_wakeup_latency_recorded () =
  let m = make_machine () in
  ignore (M.spawn m (T.default_spec ~name:"s" (one_shot (Kernsim.Time.us 100))));
  M.run_for m (Kernsim.Time.ms 2);
  let h = Kernsim.Accounting.wakeup_latency (M.metrics m) in
  check Alcotest.bool "samples exist" true (Stats.Histogram.count h >= 1)

let test_busy_accounting () =
  let m = make_machine () in
  ignore (M.spawn m (T.default_spec ~name:"x" (one_shot (Kernsim.Time.ms 2)))) ;
  M.run_for m (Kernsim.Time.ms 10);
  let busy = Kernsim.Accounting.total_busy (M.metrics m) in
  check Alcotest.bool "~2ms busy" true (busy >= Kernsim.Time.ms 2 && busy < Kernsim.Time.ms 3)

let test_set_nice_applies () =
  let m = make_machine () in
  let pid = M.spawn m (T.default_spec ~name:"n" (one_shot (Kernsim.Time.ms 50))) in
  M.run_for m (Kernsim.Time.ms 1);
  M.Private.set_nice m ~pid ~nice:10;
  let task = Option.get (M.find_task m pid) in
  check Alcotest.int "nice set" 10 task.T.nice

let test_affinity_restricts () =
  let m = make_machine () in
  let spec =
    { (T.default_spec ~name:"pin" (hog ~chunk:(Kernsim.Time.ms 1) ~steps:20)) with
      T.affinity = Some [ 3 ] }
  in
  let pid = M.spawn m spec in
  M.run_for m (Kernsim.Time.ms 5);
  let task = Option.get (M.find_task m pid) in
  check Alcotest.int "stays on cpu 3" 3 task.T.cpu

let test_chan_semaphore_semantics () =
  (* a Wake before any Block must not be lost *)
  let m = make_machine () in
  let ch = M.new_chan m in
  let consumer_done = ref false in
  let producer =
    let st = ref `Go in
    fun (_ : T.ctx) ->
      match !st with
      | `Go ->
        st := `Done;
        T.wake ch
      | `Done -> T.exit
  in
  let consumer =
    let st = ref `Sleep in
    fun (_ : T.ctx) ->
      match !st with
      | `Sleep ->
        st := `Take;
        T.sleep (Kernsim.Time.ms 2) (* let the producer signal first *)
      | `Take ->
        st := `Done;
        T.block ch
      | `Done ->
        consumer_done := true;
        T.exit
  in
  ignore (M.spawn m (T.default_spec ~name:"prod" producer));
  ignore (M.spawn m (T.default_spec ~name:"cons" consumer));
  M.run_for m (Kernsim.Time.ms 10);
  check Alcotest.bool "signal not lost" true !consumer_done

let test_many_tasks_many_cores_progress () =
  let m = make_machine ~topology:Kernsim.Topology.two_socket () in
  let pids =
    List.init 120 (fun i ->
        M.spawn m (T.default_spec ~name:(Printf.sprintf "w%d" i) (hog ~chunk:(Kernsim.Time.us 500) ~steps:20)))
  in
  M.run_for m (Kernsim.Time.ms 100);
  let finished =
    List.length (List.filter (fun pid -> (Option.get (M.find_task m pid)).T.state = T.Dead) pids)
  in
  check Alcotest.int "all 120 finished (work conservation)" 120 finished

let test_cfs_weight_table () =
  check Alcotest.int "nice 0" 1024 (Kernsim.Cfs.weight_of_nice 0);
  check Alcotest.int "nice -20" 88761 (Kernsim.Cfs.weight_of_nice (-20));
  check Alcotest.int "nice 19" 15 (Kernsim.Cfs.weight_of_nice 19);
  check Alcotest.int "clamped" 15 (Kernsim.Cfs.weight_of_nice 40)

let test_topology () =
  let t = Kernsim.Topology.two_socket in
  check Alcotest.int "cpus" 80 (Kernsim.Topology.nr_cpus t);
  check Alcotest.bool "same node" true (List.mem 39 (Kernsim.Topology.node_cpus t 0));
  check Alcotest.bool "cross node" false (List.mem 40 (Kernsim.Topology.node_cpus t 39));
  check Alcotest.bool "last cpu on the second node" true
    (List.mem 40 (Kernsim.Topology.node_cpus t 79));
  check Alcotest.int "node size" 40 (List.length (Kernsim.Topology.node_cpus t 5))

let test_time_pp () =
  check Alcotest.string "us" "3.6us" (Kernsim.Time.to_string 3600);
  check Alcotest.string "ns" "500ns" (Kernsim.Time.to_string 500);
  check Alcotest.string "ms" "2.00ms" (Kernsim.Time.to_string (Kernsim.Time.ms 2))

let () =
  Alcotest.run "kernsim"
    [
      ( "sim",
        [
          Alcotest.test_case "event order" `Quick test_sim_event_order;
          Alcotest.test_case "run_until" `Quick test_sim_run_until;
          Alcotest.test_case "negative delay rejected" `Quick test_sim_negative_delay;
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:100 ~name:"backend equivalence under arm/re-arm/cancel"
               QCheck.(int_bound 1_000_000)
               prop_sim_matches_reference);
          Alcotest.test_case "steady state allocates nothing" `Quick test_sim_no_alloc;
        ] );
      ( "machine",
        [
          Alcotest.test_case "single task" `Quick test_single_task_runs_and_exits;
          Alcotest.test_case "spread across cores" `Quick test_tasks_spread_across_cores;
          Alcotest.test_case "block/wake pingpong" `Quick test_block_wake_pingpong;
          Alcotest.test_case "sleep wakes" `Quick test_sleep_wakes_up;
          Alcotest.test_case "spawn action" `Quick test_spawn_action;
          Alcotest.test_case "payload actions in order" `Quick test_payload_actions_in_order;
          Alcotest.test_case "yield alternates" `Quick test_yield_alternates;
          Alcotest.test_case "wakeup latency metric" `Quick test_wakeup_latency_recorded;
          Alcotest.test_case "busy accounting" `Quick test_busy_accounting;
          Alcotest.test_case "set_nice" `Quick test_set_nice_applies;
          Alcotest.test_case "affinity" `Quick test_affinity_restricts;
          Alcotest.test_case "chan semaphore" `Quick test_chan_semaphore_semantics;
          Alcotest.test_case "many tasks progress" `Quick test_many_tasks_many_cores_progress;
        ] );
      ( "action",
        [
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:1000 ~name:"encoding round-trips over its whole range" in_range
               prop_action_round_trip);
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:200 ~name:"an argument that does not fit raises"
               out_of_range prop_action_out_of_range);
          Alcotest.test_case "payload kinds fill their slots" `Quick test_action_payload_kinds;
        ] );
      ( "cfs",
        [
          Alcotest.test_case "fair sharing" `Quick test_fair_sharing_one_core;
          Alcotest.test_case "weighted sharing" `Quick test_weighted_sharing;
          Alcotest.test_case "weight table" `Quick test_cfs_weight_table;
        ] );
      ( "topology",
        [
          Alcotest.test_case "two socket" `Quick test_topology;
          Alcotest.test_case "time pp" `Quick test_time_pp;
        ] );
    ]
