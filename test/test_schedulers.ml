(* Behavioural tests for the scheduler implementations (lib/schedulers). *)

module T = Kernsim.Task
module M = Kernsim.Machine

let check = Alcotest.check

let build kind = Workloads.Setup.build ~topology:Kernsim.Topology.one_socket kind

let hog ~chunk ~steps =
  let left = ref steps in
  fun (_ : T.ctx) ->
    if !left = 0 then T.Exit
    else begin
      decr left;
      T.Compute chunk
    end

let spawn_hog (b : Workloads.Setup.built) ?(nice = 0) ?affinity ~name ~work () =
  M.spawn b.machine
    {
      (T.default_spec ~name (hog ~chunk:(Kernsim.Time.ms 1) ~steps:(work / Kernsim.Time.ms 1)))
      with
      T.policy = b.policy;
      nice;
      affinity;
    }

let runtime_of b pid = (Option.get (M.find_task b.Workloads.Setup.machine pid)).T.sum_exec

let state_of b pid = (Option.get (M.find_task b.Workloads.Setup.machine pid)).T.state

(* ---------- WFQ ---------- *)

let test_wfq_fair_two_hogs () =
  let b = build (Workloads.Setup.Enoki_sched (module Schedulers.Wfq)) in
  let a = spawn_hog b ~name:"a" ~affinity:[ 0 ] ~work:(Kernsim.Time.ms 300) () in
  let c = spawn_hog b ~name:"c" ~affinity:[ 0 ] ~work:(Kernsim.Time.ms 300) () in
  M.run_for b.machine (Kernsim.Time.ms 100);
  let ra = float_of_int (runtime_of b a) and rc = float_of_int (runtime_of b c) in
  let ratio = ra /. Float.max 1.0 rc in
  if ratio < 0.7 || ratio > 1.4 then Alcotest.failf "wfq unfair: %f vs %f" ra rc

let test_wfq_weighted () =
  let b = build (Workloads.Setup.Enoki_sched (module Schedulers.Wfq)) in
  let hi = spawn_hog b ~name:"hi" ~nice:0 ~affinity:[ 0 ] ~work:(Kernsim.Time.ms 400) () in
  let lo = spawn_hog b ~name:"lo" ~nice:5 ~affinity:[ 0 ] ~work:(Kernsim.Time.ms 400) () in
  M.run_for b.machine (Kernsim.Time.ms 120);
  let ratio = float_of_int (runtime_of b hi) /. Float.max 1.0 (float_of_int (runtime_of b lo)) in
  (* weights 1024 vs 335: expect roughly 3x *)
  if ratio < 1.8 || ratio > 5.0 then Alcotest.failf "wfq weighting off: ratio %f" ratio

let test_wfq_steals_when_idle () =
  let b = build (Workloads.Setup.Enoki_sched (module Schedulers.Wfq)) in
  (* 16 tasks on an 8-core box: all must finish, so idle cores stole work *)
  let pids = List.init 16 (fun i -> spawn_hog b ~name:(Printf.sprintf "w%d" i) ~work:(Kernsim.Time.ms 10) ()) in
  M.run_for b.machine (Kernsim.Time.ms 200);
  List.iter (fun pid -> check Alcotest.bool "finished" true (state_of b pid = T.Dead)) pids

let test_wfq_work_conserving () =
  let b = build (Workloads.Setup.Enoki_sched (module Schedulers.Wfq)) in
  let pids = List.init 8 (fun i -> spawn_hog b ~name:(Printf.sprintf "w%d" i) ~work:(Kernsim.Time.ms 20) ()) in
  M.run_for b.machine (Kernsim.Time.ms 100);
  (* 8 tasks, 8 cores: total runtime ~ 8 x 20ms consumed in ~20ms wall *)
  List.iter (fun pid -> check Alcotest.bool "done" true (state_of b pid = T.Dead)) pids;
  let total = List.fold_left (fun acc pid -> acc + runtime_of b pid) 0 pids in
  check Alcotest.bool "all work done" true (total >= 8 * Kernsim.Time.ms 20)

let test_wfq_vruntime_visible () =
  let b = build (Workloads.Setup.Enoki_sched (module Schedulers.Wfq)) in
  let pid = spawn_hog b ~name:"v" ~affinity:[ 0 ] ~work:(Kernsim.Time.ms 50) () in
  let _other = spawn_hog b ~name:"o" ~affinity:[ 0 ] ~work:(Kernsim.Time.ms 50) () in
  M.run_for b.machine (Kernsim.Time.ms 20);
  match b.enoki with
  | Some _ -> (
    (* reach through the registered module is not exposed; spot-check via a
       fresh instance instead *)
    let ctx = Enoki.Ctx.inert () in
    let w = Schedulers.Wfq.create ctx in
    check Alcotest.(option int) "unknown pid has no vruntime" None
      (Schedulers.Wfq.Private.vruntime_of w ~pid);
    check Alcotest.int "fresh queues empty" 0 (Schedulers.Wfq.Private.queue_length w ~cpu:0))
  | None -> Alcotest.fail "no enoki"

(* Regression: a second wakeup, or a pnt_err, for a pid that is still
   queued used to add a second run-queue entry under the new vruntime and
   leave the old one behind as a ghost holding a stale token. *)
let test_wfq_requeue_moves_single_entry () =
  let module W = Schedulers.Wfq in
  let w = W.create (Enoki.Ctx.inert ()) in
  let tok gen = Enoki.Schedulable.Private.create ~pid:3 ~cpu:0 ~gen in
  let t1 = tok 1 and t2 = tok 2 and t3 = tok 3 in
  W.task_new w ~pid:3 ~runtime:0 ~prio:0 ~sched:t1;
  (* the pid ran in between, so the second wakeup moves its vruntime *)
  W.task_wakeup w ~pid:3 ~runtime:(Kernsim.Time.ms 5) ~waker_cpu:0 ~sched:t2;
  check Alcotest.int "second wakeup: one entry" 1 (W.Private.queue_length w ~cpu:0);
  W.pnt_err w ~cpu:0 ~pid:3 ~err:"test" ~sched:t3;
  check Alcotest.int "pnt_err: one entry" 1 (W.Private.queue_length w ~cpu:0);
  let none = Enoki.Schedulable.none in
  let t = W.pick_next_task w ~cpu:0 ~curr:none ~curr_runtime:0 in
  check Alcotest.bool "queued pid picked" false (Enoki.Schedulable.is_none t);
  check Alcotest.int "picked with the newest token" 3 (Enoki.Schedulable.generation t);
  check Alcotest.bool "picked exactly once" true
    (Enoki.Schedulable.is_none (W.pick_next_task w ~cpu:0 ~curr:none ~curr_runtime:0));
  check Alcotest.int "queue drained" 0 (W.Private.queue_length w ~cpu:0)

(* ---------- Shinjuku ---------- *)

let test_shinjuku_preempts_long_tasks () =
  (* one long task + short tasks on one effective core: shorts must finish
     quickly because the long task is preempted every 10us *)
  let b = build (Workloads.Setup.Enoki_sched (module Schedulers.Shinjuku)) in
  let affinity = Some [ 0 ] in
  let long =
    M.spawn b.machine
      { (T.default_spec ~name:"long" (hog ~chunk:(Kernsim.Time.ms 10) ~steps:1)) with
        T.policy = b.policy; affinity }
  in
  let short_done = ref [] in
  for i = 1 to 5 do
    let beh =
      let st = ref `Go in
      fun (ctx : T.ctx) ->
        match !st with
        | `Go ->
          st := `End;
          T.Compute (Kernsim.Time.us 20)
        | `End ->
          short_done := ctx.T.now :: !short_done;
          T.Exit
    in
    ignore
      (M.spawn b.machine
         { (T.default_spec ~name:(Printf.sprintf "short%d" i) beh) with T.policy = b.policy; affinity })
  done;
  M.run_for b.machine (Kernsim.Time.ms 30);
  check Alcotest.int "all shorts finished" 5 (List.length !short_done);
  List.iter
    (fun t ->
      if t > Kernsim.Time.ms 2 then
        Alcotest.failf "short task finished too late (%s): not preempting" (Kernsim.Time.to_string t))
    !short_done;
  check Alcotest.bool "long eventually finishes" true (state_of b long = T.Dead || runtime_of b long > 0)

let test_shinjuku_fcfs_order () =
  let b = build (Workloads.Setup.Enoki_sched (module Schedulers.Shinjuku)) in
  let affinity = Some [ 0 ] in
  let order = ref [] in
  for i = 1 to 4 do
    let beh =
      let st = ref `Go in
      fun (_ : T.ctx) ->
        match !st with
        | `Go ->
          order := i :: !order;
          st := `End;
          T.Compute (Kernsim.Time.us 5)
        | `End -> T.Exit
    in
    ignore
      (M.spawn b.machine
         { (T.default_spec ~name:(Printf.sprintf "t%d" i) beh) with T.policy = b.policy; affinity })
  done;
  M.run_for b.machine (Kernsim.Time.ms 5);
  check Alcotest.(list int) "first-come-first-served" [ 1; 2; 3; 4 ] (List.rev !order)

let test_shinjuku_slice_variant () =
  let module S50 = struct
    include Schedulers.Shinjuku
    let name = "shinjuku-50us"
    let create ctx = make ctx ~slice:(Kernsim.Time.us 50)
  end in
  let b = build (Workloads.Setup.Enoki_sched (module S50)) in
  let pid = spawn_hog b ~name:"x" ~work:(Kernsim.Time.ms 5) () in
  M.run_for b.machine (Kernsim.Time.ms 50);
  check Alcotest.bool "variant slice scheduler works" true (state_of b pid = T.Dead)

(* ---------- Locality ---------- *)

let test_locality_groups_colocated () =
  Schedulers.Hints.register_codecs ();
  let b = build (Workloads.Setup.Enoki_sched (module Schedulers.Locality)) in
  let group_cpus : (int, int) Hashtbl.t = Hashtbl.create 8 in
  (* 4 groups x 3 tasks; each task hints its group then records its cpu *)
  for g = 0 to 3 do
    for i = 0 to 2 do
      let beh =
        let st = ref `Hint in
        fun (ctx : T.ctx) ->
          match !st with
          | `Hint ->
            st := `Sleep;
            T.Send_hint (Schedulers.Hints.Locality { pid = ctx.T.self; group = g })
          | `Sleep ->
            (* block so the next wakeup applies the group placement *)
            st := `Record;
            T.Sleep (Kernsim.Time.ms 1)
          | `Record ->
            Hashtbl.replace group_cpus ((g * 10) + i) ctx.T.cpu;
            T.Exit
      in
      ignore
        (M.spawn b.machine
           { (T.default_spec ~name:(Printf.sprintf "g%d-%d" g i) beh) with T.policy = b.policy })
    done
  done;
  M.run_for b.machine (Kernsim.Time.ms 50);
  (* within each group all cpus equal; distinct groups on distinct cpus *)
  let cpu_of g i = Hashtbl.find group_cpus ((g * 10) + i) in
  let group_cpu = Array.init 4 (fun g -> cpu_of g 0) in
  for g = 0 to 3 do
    for i = 1 to 2 do
      check Alcotest.int (Printf.sprintf "group %d task %d colocated" g i) group_cpu.(g) (cpu_of g i)
    done
  done;
  let distinct = List.sort_uniq Int.compare (Array.to_list group_cpu) in
  check Alcotest.int "groups spread over distinct cpus" 4 (List.length distinct)

let test_locality_ignores_hint_when_overloaded () =
  let ctx = Enoki.Ctx.inert ~nr_cpus:2 () in
  let l = Schedulers.Locality.create ctx in
  (* no hints: placement must still answer within the allowed set *)
  let cpu = Schedulers.Locality.select_task_rq l ~pid:1 ~waker_cpu:0 ~allowed:[ 1 ] in
  check Alcotest.int "respects allowed" 1 cpu

(* ---------- Arachne ---------- *)

let test_arachne_grants_and_reclaims () =
  Schedulers.Hints.register_codecs ();
  let b = build (Workloads.Setup.Enoki_sched (module Schedulers.Arachne)) in
  let m = b.machine in
  let grants = ref [] and reclaims = ref [] in
  (* activations: spin until reclaimed *)
  let park = Array.init 3 (fun _ -> M.new_chan m) in
  let parked = Array.make 3 false in
  for slot = 0 to 2 do
    let beh (_ : T.ctx) =
      if parked.(slot) then begin
        parked.(slot) <- false;
        T.Block park.(slot)
      end
      else T.Compute (Kernsim.Time.us 50)
    in
    ignore
      (M.spawn m
         { (T.default_spec ~name:(Printf.sprintf "act%d" slot) beh) with T.policy = b.policy })
  done;
  (* runtime: ask for 2 cores, then shrink to 1 *)
  let runtime =
    let st = ref `Ask2 in
    fun (ctx : T.ctx) ->
      List.iter
        (fun h ->
          match h with
          | Schedulers.Hints.Core_grant { slot; cpu } -> grants := (slot, cpu) :: !grants
          | Schedulers.Hints.Core_reclaim { slot } ->
            reclaims := slot :: !reclaims;
            if slot < 3 then parked.(slot) <- true
          | _ -> ())
        ctx.T.inbox;
      match !st with
      | `Ask2 ->
        st := `Wait1;
        T.Send_hint (Schedulers.Hints.Core_request { pid = ctx.T.self; cores = 2 })
      | `Wait1 ->
        st := `Ask1;
        T.Sleep (Kernsim.Time.ms 5)
      | `Ask1 ->
        st := `Wait2;
        T.Send_hint (Schedulers.Hints.Core_request { pid = ctx.T.self; cores = 1 })
      | `Wait2 ->
        st := `Check;
        T.Sleep (Kernsim.Time.ms 5)
      | `Check -> T.Exit
  in
  ignore
    (M.spawn m
       { (T.default_spec ~name:"runtime" runtime) with
         T.policy = b.cfs_policy;
         affinity = Some [ 0 ];
       });
  M.run_for m (Kernsim.Time.ms 30);
  check Alcotest.bool "cores were granted" true (List.length !grants >= 2);
  check Alcotest.bool "a core was reclaimed" true (List.length !reclaims >= 1);
  (* granted cpus are managed cores (not cpu 0) *)
  List.iter (fun (_, cpu) -> check Alcotest.bool "managed core" true (cpu >= 1)) !grants

(* ---------- ghOSt ---------- *)

let test_ghost_policies_run_tasks () =
  List.iter
    (fun policy ->
      let b = build (Workloads.Setup.Ghost policy) in
      let pids =
        List.init 4 (fun i -> spawn_hog b ~name:(Printf.sprintf "g%d" i) ~work:(Kernsim.Time.ms 5) ())
      in
      M.run_for b.machine (Kernsim.Time.ms 200);
      List.iter
        (fun pid -> check Alcotest.bool "ghost task completed" true (state_of b pid = T.Dead))
        pids)
    [ Schedulers.Ghost_sim.Fifo_per_cpu; Schedulers.Ghost_sim.Sol; Schedulers.Ghost_sim.Gshinjuku ]

let test_ghost_agent_core_reserved () =
  check Alcotest.(option int) "sol agent on last cpu" (Some 7)
    (Schedulers.Ghost_sim.agent_cpu Schedulers.Ghost_sim.Sol ~nr_cpus:8);
  check Alcotest.(option int) "per-cpu fifo has no dedicated core" None
    (Schedulers.Ghost_sim.agent_cpu Schedulers.Ghost_sim.Fifo_per_cpu ~nr_cpus:8)

let test_ghost_slower_than_cfs_on_pipe () =
  let cfs = Workloads.Pipe_bench.run (build Workloads.Setup.Cfs) ~messages:5000 () in
  let sol =
    Workloads.Pipe_bench.run (build (Workloads.Setup.Ghost Schedulers.Ghost_sim.Sol)) ~messages:5000 ()
  in
  check Alcotest.bool "ghost adds latency" true (sol.us_per_wakeup > cfs.us_per_wakeup)

(* ---------- CFS consistency under stress ---------- *)

let test_cfs_consistent_under_stress () =
  (* mixed priorities, affinities, blocking and migration with the internal
     consistency checker enabled: any divergence raises *)
  let machine =
    M.create ~topology:Kernsim.Topology.one_socket
      ~classes:[ Kernsim.Cfs.factory ~debug_checks:true () ]
      ()
  in
  let rng = Stats.Prng.create ~seed:99 in
  let ch = M.new_chan machine in
  for i = 0 to 19 do
    let beh =
      let steps = ref (10 + Stats.Prng.int rng 20) in
      fun (_ : T.ctx) ->
        if !steps = 0 then T.Exit
        else begin
          decr steps;
          match Stats.Prng.int rng 4 with
          | 0 -> T.Compute (Stats.Prng.int rng 500_000 + 1)
          | 1 -> T.Sleep (Stats.Prng.int rng 200_000 + 1)
          | 2 -> T.Wake ch
          | _ -> if Stats.Prng.int rng 2 = 0 then T.Block ch else T.Yield
        end
    in
    let affinity = if i mod 3 = 0 then Some [ i mod 8 ] else None in
    ignore
      (M.spawn machine
         { (T.default_spec ~name:(Printf.sprintf "s%d" i) beh) with
           T.nice = Stats.Prng.int rng 40 - 20;
           affinity;
         })
  done;
  (* release any stragglers then let everything finish *)
  M.run_for machine (Kernsim.Time.ms 200);
  check Alcotest.bool "no consistency failure" true true

let prop_cfs_random_workloads_consistent seed =
  let machine =
    M.create ~topology:Kernsim.Topology.one_socket
      ~classes:[ Kernsim.Cfs.factory ~debug_checks:true () ]
      ()
  in
  let rng = Stats.Prng.create ~seed in
  let ch = M.new_chan machine in
  for i = 0 to 9 do
    let beh =
      let steps = ref (5 + Stats.Prng.int rng 10) in
      fun (_ : T.ctx) ->
        if !steps = 0 then T.Exit
        else begin
          decr steps;
          match Stats.Prng.int rng 5 with
          | 0 -> T.Compute (Stats.Prng.int rng 2_000_000 + 1)
          | 1 -> T.Sleep (Stats.Prng.int rng 500_000 + 1)
          | 2 -> T.Wake ch
          | 3 -> T.Block ch
          | _ -> T.Yield
        end
    in
    ignore
      (M.spawn machine
         { (T.default_spec ~name:(Printf.sprintf "p%d" i) beh) with
           T.nice = Stats.Prng.int rng 40 - 20 })
  done;
  M.run_for machine (Kernsim.Time.ms 100);
  true

let qtest ?(count = 30) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* ---------- golden digests ---------- *)

(* md5s of deterministic artefacts for every registry scheduler: the
   ftrace export of a short pipe and a short schbench run, the record log
   of the schbench run (Enoki-routed schedulers), and the ftrace export of
   a pipe run under the [panic] and [chaos] fault plans (Enoki modules).
   They pin the exact decision stream, so a refactor of a module's data
   structures must leave every one unchanged.  A deliberate behaviour
   change regenerates them: the failure message prints the new digest. *)

let short_schbench =
  {
    (Workloads.Schbench.default_params ()) with
    warmup = Kernsim.Time.ms 20;
    duration = Kernsim.Time.ms 100;
  }

let ftrace_digest ?record kind run =
  let tracer = Trace.Tracer.create ~nr_cpus:(Kernsim.Topology.nr_cpus Kernsim.Topology.one_socket) () in
  let b = Workloads.Setup.build ?record ~tracer ~topology:Kernsim.Topology.one_socket kind in
  run b;
  let path = Filename.temp_file "golden" ".txt" in
  Trace.Export.save ~path Trace.Export.Ftrace (Trace.Tracer.events tracer);
  let digest = Digest.to_hex (Digest.file path) in
  Sys.remove path;
  digest

let pipe b = ignore (Workloads.Pipe_bench.run b ~messages:1_000 ())

let schbench b = ignore (Workloads.Schbench.run b short_schbench)

let golden_runs (e : Schedulers.Registry.entry) =
  let kind = Workloads.Setup.of_registry e in
  let base = [ ("pipe", ftrace_digest kind pipe); ("schbench", ftrace_digest kind schbench) ] in
  match Schedulers.Registry.enoki_module e with
  | None -> base
  | Some m ->
    let record = Enoki.Record.create () in
    ignore (ftrace_digest ~record kind schbench);
    let faulted preset =
      let plan = Result.get_ok (Fault.Plan.parse preset) in
      ftrace_digest (Workloads.Setup.Enoki_sched (Fault.Inject.wrap ~seed:11 ~plan m)) pipe
    in
    base
    @ [
        ("record", Digest.to_hex (Digest.string (Enoki.Record.contents record)));
        ("panic", faulted "panic");
        ("chaos", faulted "chaos");
      ]

let golden =
  [
    ("cfs/pipe", "c1973124b4821cb8e90855d4eb6bc626");
    ("cfs/schbench", "e0cfd1268054501e7c88409d33b99ff9");
    ("fifo/pipe", "604a728b211efb227247e75f5ce5e19d");
    ("fifo/schbench", "128ef7927b7731698aad6728e1659004");
    ("fifo/record", "cbcb32a04986f18d54b292d902a39407");
    ("fifo/panic", "903e0aa6b16200716ac1bf3a0efcaf58");
    ("fifo/chaos", "f7333208962d9543a5e7e2cf3b9a3622");
    ("wfq/pipe", "5e2cda63bdefc61a579baa17f350374f");
    ("wfq/schbench", "bfb80a8db2c2611375115efa8b9dd369");
    ("wfq/record", "0b80fb84e1004ccfdf258ed6a83b0166");
    ("wfq/panic", "1136819548b6030310d8733a616dfff1");
    ("wfq/chaos", "e9aa78ed54602b173af5597e7e0c3e54");
    ("shinjuku/pipe", "ba1793002ed67121918faf7c2986af93");
    ("shinjuku/schbench", "414fdf5a6bc3319c9ea90931feff16b2");
    ("shinjuku/record", "0536dc62c62504b1a0bbd3a0b3b6b4ae");
    ("shinjuku/panic", "df847da7d5747efbcd3721ea1590867e");
    ("shinjuku/chaos", "402599d1acc2bcc949925ca1420f45b3");
    ("locality/pipe", "06899849a5f0b686d44cd18504fa6dd5");
    ("locality/schbench", "132fe4877ddeb265605771372059a58f");
    ("locality/record", "eb1161f0745105949409f496b5d64f62");
    ("locality/panic", "ae6f01d5d748deb95ff710d5280f5f84");
    ("locality/chaos", "4d9e3c7846639aecb6972a7532a9ec0e");
    ("arachne/pipe", "eabd12cf99d1906dc7245179ba7d24d2");
    ("arachne/schbench", "89911c4ca55600a9fea436e24f116511");
    ("arachne/record", "040ce67ffdc329ad245c2627cd008861");
    ("arachne/panic", "eabd12cf99d1906dc7245179ba7d24d2");
    ("arachne/chaos", "748f98905f6eb2100339aa40b0ceec8b");
    ("edf/pipe", "49a0e733fb61e2fb332bb22d4c1b1acb");
    ("edf/schbench", "72df836bf39490075c1c7d96a2cb8446");
    ("edf/record", "df0733041fd4dd8721d7b3a9fd9e6f8f");
    ("edf/panic", "3cf49ad539da1a5942fdc0b621bd5f9c");
    ("edf/chaos", "f84b76026823b5e6fa64792ea1be17f1");
    ("nest/pipe", "41a83e059562e1873227b22d2b5518cc");
    ("nest/schbench", "1cf60239f319f347cb5b9dfc03b67fec");
    ("nest/record", "e1c129eabf6d54d1c98fdc14b40fe52b");
    ("nest/panic", "d76d091d8a923044d701e02a8cc59450");
    ("nest/chaos", "83e65010cef998b63eec3a59320ade94");
    ("rt-fifo/pipe", "49a0e733fb61e2fb332bb22d4c1b1acb");
    ("rt-fifo/schbench", "9f6b3ef5f2e5f98449ab5b30978fc690");
    ("rt-fifo/record", "5ce2824351bf935e5407c32474725850");
    ("rt-fifo/panic", "3cf49ad539da1a5942fdc0b621bd5f9c");
    ("rt-fifo/chaos", "4415f7dd79e6a21216353d37a843c236");
    ("scx-simple/pipe", "3f9071015bd7b163b64470c0d8d59638");
    ("scx-simple/schbench", "cb8825ee9e65562af79cde0a867a7735");
    ("scx-simple/record", "3d23b949d7153d27818a49fc33418fcd");
    ("scx-simple/panic", "b4724a87687c06016d7a3bda685b5882");
    ("scx-simple/chaos", "1eb10d74e30ab9565760afe45152495b");
    ("scx-rr/pipe", "8142452a8467d186ca4506a775e92aec");
    ("scx-rr/schbench", "8a18e26fc717ec1a4880884455f76683");
    ("scx-rr/record", "bb8703213fc8afbe4ba133c14bffe26a");
    ("scx-rr/panic", "3622c207b0d8f69c2c0fca1a50341b44");
    ("scx-rr/chaos", "7283efb2ca0b32dc0e644409508e15ca");
    ("scx-prio-dq/pipe", "110635e91a46df5e57ad5b704f944195");
    ("scx-prio-dq/schbench", "b3c75e5ba39f3134473f93b651817b80");
    ("scx-prio-dq/record", "a3080591b618415822157546b2ae68e3");
    ("scx-prio-dq/panic", "eed5b76a86dc8d133441c2b03de9a8ec");
    ("scx-prio-dq/chaos", "fe350fa41edec2f14c789836b5615c48");
    ("ghost-sol/pipe", "72f146fed464db40f25a4726c3af08e7");
    ("ghost-sol/schbench", "212561a5cd695a6306ab557dccb19307");
    ("ghost-fifo/pipe", "7f0a37123950462da3f9e716500ed736");
    ("ghost-fifo/schbench", "132e8832bd432a5709ccae0ef918608b");
    ("ghost-shinjuku/pipe", "949cb421238aa0fd633e0e1d2664afad");
    ("ghost-shinjuku/schbench", "91b126a211824476a9c91f5bd3d256f6");
  ]

let test_golden_digests () =
  let missing = ref [] in
  List.iter
    (fun (e : Schedulers.Registry.entry) ->
      List.iter
        (fun (run, got) ->
          let label = e.name ^ "/" ^ run in
          match List.assoc_opt label golden with
          | Some want -> check Alcotest.string label want got
          | None -> missing := Printf.sprintf "    (%S, %S);" label got :: !missing)
        (golden_runs e))
    Schedulers.Registry.all;
  if !missing <> [] then
    Alcotest.failf "no golden digest for:\n%s" (String.concat "\n" (List.rev !missing))

let () =
  Alcotest.run "schedulers"
    [
      ( "wfq",
        [
          Alcotest.test_case "fair two hogs" `Quick test_wfq_fair_two_hogs;
          Alcotest.test_case "weighted" `Quick test_wfq_weighted;
          Alcotest.test_case "steals when idle" `Quick test_wfq_steals_when_idle;
          Alcotest.test_case "work conserving" `Quick test_wfq_work_conserving;
          Alcotest.test_case "introspection" `Quick test_wfq_vruntime_visible;
          Alcotest.test_case "re-queue moves the single entry" `Quick
            test_wfq_requeue_moves_single_entry;
        ] );
      ( "shinjuku",
        [
          Alcotest.test_case "preempts long tasks" `Quick test_shinjuku_preempts_long_tasks;
          Alcotest.test_case "fcfs order" `Quick test_shinjuku_fcfs_order;
          Alcotest.test_case "slice variant" `Quick test_shinjuku_slice_variant;
        ] );
      ( "locality",
        [
          Alcotest.test_case "groups colocated" `Quick test_locality_groups_colocated;
          Alcotest.test_case "respects allowed" `Quick test_locality_ignores_hint_when_overloaded;
        ] );
      ( "arachne",
        [ Alcotest.test_case "grants and reclaims" `Quick test_arachne_grants_and_reclaims ] );
      ( "ghost",
        [
          Alcotest.test_case "policies run tasks" `Quick test_ghost_policies_run_tasks;
          Alcotest.test_case "agent core" `Quick test_ghost_agent_core_reserved;
          Alcotest.test_case "slower than cfs on pipe" `Quick test_ghost_slower_than_cfs_on_pipe;
        ] );
      ( "golden",
        [ Alcotest.test_case "digests unchanged, every scheduler" `Quick test_golden_digests ] );
      ( "cfs-stress",
        [
          Alcotest.test_case "consistent under stress" `Quick test_cfs_consistent_under_stress;
          qtest "random workloads keep invariants" QCheck.(int_bound 10_000)
            prop_cfs_random_workloads_consistent;
        ] );
    ]
