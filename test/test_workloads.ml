(* Integration tests of the workload generators: each experiment's moving
   parts produce sane, direction-correct results on scaled-down inputs. *)

let check = Alcotest.check

let one_socket = Kernsim.Topology.one_socket

let build kind = Workloads.Setup.build ~topology:one_socket kind

let cfs () = build Workloads.Setup.Cfs

let wfq () = build (Workloads.Setup.Enoki_sched (module Schedulers.Wfq))

(* ---------- pipe ---------- *)

let test_pipe_completes () =
  let r = Workloads.Pipe_bench.run (cfs ()) ~messages:2_000 () in
  check Alcotest.bool "completed" true r.completed;
  check Alcotest.int "wakeups" 4_000 r.wakeups;
  check Alcotest.bool "latency in range" true (r.us_per_wakeup > 1.0 && r.us_per_wakeup < 20.0)

let test_pipe_same_core_cheaper_than_cross () =
  (* one core avoids IPIs and idle exits on this benchmark *)
  let one = Workloads.Pipe_bench.run (cfs ()) ~same_core:true ~messages:2_000 () in
  let two = Workloads.Pipe_bench.run (cfs ()) ~same_core:false ~messages:2_000 () in
  check Alcotest.bool "one-core cheaper" true (one.us_per_wakeup < two.us_per_wakeup)

let test_pipe_enoki_overhead_positive () =
  let c = Workloads.Pipe_bench.run (cfs ()) ~messages:2_000 () in
  let w = Workloads.Pipe_bench.run (wfq ()) ~messages:2_000 () in
  let delta = w.us_per_wakeup -. c.us_per_wakeup in
  (* the paper: ~0.4-0.6us of Enoki overhead per wakeup *)
  check Alcotest.bool "some overhead" true (delta > 0.1);
  check Alcotest.bool "not excessive" true (delta < 2.0)

let test_pipe_userlevel_is_fast () =
  let r = Workloads.Pipe_bench.run_userlevel (cfs ()) ~messages:2_000 () in
  check Alcotest.bool "sub-microsecond wakeups" true (r.us_per_wakeup < 0.5)

(* ---------- schbench ---------- *)

let quick_schbench =
  {
    (Workloads.Schbench.default_params ()) with
    warmup = Kernsim.Time.ms 100;
    duration = Kernsim.Time.ms 600;
    message_work = Kernsim.Time.ms 5;
  }

let test_schbench_produces_samples () =
  let r = Workloads.Schbench.run (cfs ()) quick_schbench in
  check Alcotest.bool "samples collected" true (r.samples > 50);
  check Alcotest.bool "p50 <= p99" true (r.p50 <= r.p99)

let test_schbench_pinned_tail_worse () =
  let spread = Workloads.Schbench.run (cfs ()) quick_schbench in
  let pinned =
    Workloads.Schbench.run (cfs ()) { quick_schbench with pin_one_core = true }
  in
  (* Table 6's claim: pinning everything to one core destroys the tail *)
  check Alcotest.bool "pinned p99 much worse" true (pinned.p99 > 3 * spread.p99)

let test_schbench_hints_beat_random () =
  let locality () = build (Workloads.Setup.Enoki_sched (module Schedulers.Locality)) in
  let random = Workloads.Schbench.run (locality ()) quick_schbench in
  let hinted =
    Workloads.Schbench.run (locality ()) { quick_schbench with locality_hints = true }
  in
  check Alcotest.bool "hints reduce p99" true (hinted.p99 < random.p99)

(* ---------- apps ---------- *)

let test_apps_all_families_complete () =
  let quick =
    [
      Workloads.Apps.
        { name = "pc"; unit_ = "x"; seed = 1;
          family = Parallel_compute { tasks_per_core = 1.0; chunk = Kernsim.Time.us 200; steps = 10; barrier = true } };
      Workloads.Apps.
        { name = "fj"; unit_ = "x"; seed = 2;
          family = Fork_join { waves = 3; tasks_per_wave = 4; work = Kernsim.Time.us 300; skew = 0.5 } };
      Workloads.Apps.
        { name = "pcons"; unit_ = "x"; seed = 3;
          family = Producer_consumer { pairs = 2; items = 50; work = Kernsim.Time.us 100 } };
      Workloads.Apps.
        { name = "io"; unit_ = "x"; seed = 4;
          family = Io_mix { tasks = 6; compute = Kernsim.Time.us 100; sleep = Kernsim.Time.us 200; iters = 20 } };
      Workloads.Apps.
        { name = "unbal"; unit_ = "x"; seed = 5;
          family = Unbalanced { tasks = 6; base = Kernsim.Time.us 500; skew = 2.0; steps = 5 } };
    ]
  in
  List.iter
    (fun app ->
      let r = Workloads.Apps.run (cfs ()) app in
      if r.score <= 0.0 then Alcotest.failf "%s: nonpositive score" app.Workloads.Apps.name;
      if r.elapsed <= 0 then Alcotest.failf "%s: no elapsed time" app.Workloads.Apps.name)
    quick

let test_apps_catalog_sizes () =
  check Alcotest.int "9 NAS apps" 9 (List.length Workloads.Apps.nas);
  check Alcotest.int "27 Phoronix apps" 27 (List.length Workloads.Apps.phoronix)

let test_apps_wfq_close_to_cfs () =
  (* one representative app: the schedulers must be within a few percent *)
  let app = List.nth Workloads.Apps.nas 4 (* IS *) in
  let c = (Workloads.Apps.run (cfs ()) app).score in
  let w = (Workloads.Apps.run (wfq ()) app).score in
  let diff = Float.abs (Stats.Summary.percent_diff ~baseline:c ~value:w) in
  check Alcotest.bool "within 5%" true (diff < 5.0)

(* ---------- rocksdb ---------- *)

let quick_rocksdb load =
  {
    (Workloads.Rocksdb.default_params ~load_kreqs:load ~with_batch:false ()) with
    warmup = Kernsim.Time.ms 100;
    duration = Kernsim.Time.ms 500;
  }

let test_rocksdb_achieves_offered_load () =
  let r = Workloads.Rocksdb.run (cfs ()) (quick_rocksdb 30.0) in
  check Alcotest.bool "achieved within 10% of offered" true
    (Float.abs (r.achieved_kreqs -. 30.0) < 3.0)

let test_rocksdb_shinjuku_beats_cfs_tail () =
  let c = Workloads.Rocksdb.run (cfs ()) (quick_rocksdb 50.0) in
  let s =
    Workloads.Rocksdb.run
      (build (Workloads.Setup.Enoki_sched (module Schedulers.Shinjuku)))
      (quick_rocksdb 50.0)
  in
  (* the Figure 2a claim at moderate-high load *)
  check Alcotest.bool "shinjuku tail lower" true (s.p99_us < c.p99_us)

let test_rocksdb_batch_share_declines () =
  let quick load =
    {
      (Workloads.Rocksdb.default_params ~load_kreqs:load ~with_batch:true ()) with
      warmup = Kernsim.Time.ms 100;
      duration = Kernsim.Time.ms 500;
    }
  in
  let low = Workloads.Rocksdb.run (cfs ()) (quick 20.0) in
  let high = Workloads.Rocksdb.run (cfs ()) (quick 70.0) in
  check Alcotest.bool "batch cpus decline with load" true (high.batch_cpus < low.batch_cpus);
  check Alcotest.bool "batch gets something" true (low.batch_cpus > 1.0)

(* ---------- memcached ---------- *)

let quick_mc mode load =
  {
    (Workloads.Memcached.default_params ~mode ~load_kreqs:load ()) with
    warmup = Kernsim.Time.ms 100;
    duration = Kernsim.Time.ms 500;
  }

let test_memcached_cfs_serves () =
  let r = Workloads.Memcached.run (cfs ()) (quick_mc Workloads.Memcached.Cfs 100.0) in
  check Alcotest.bool "achieved close to offered" true
    (Float.abs (r.achieved_kreqs -. 100.0) < 10.0)

let test_memcached_arachne_scales_cores () =
  let arachne () = build (Workloads.Setup.Enoki_sched (module Schedulers.Arachne)) in
  let low =
    Workloads.Memcached.run (arachne ()) (quick_mc Workloads.Memcached.Arachne_enoki 50.0)
  in
  let high =
    Workloads.Memcached.run (arachne ()) (quick_mc Workloads.Memcached.Arachne_enoki 300.0)
  in
  check Alcotest.bool "more load, more cores" true (high.avg_cores > low.avg_cores +. 1.0);
  check Alcotest.bool "scales within 2..7" true (high.avg_cores <= 7.2)

(* ---------- driver streams ----------

   ftrace md5s of short runs of both request drivers: rocksdb on cfs, on
   cfs beside the batch app, on shinjuku and on ghost-sol, and memcached
   in all three server modes.  They pin every decision the open-loop
   request path leads to, so a rewrite of the drivers must leave each one
   unchanged.  The rings are sized so that no run drops an event. *)

let short_run = (Kernsim.Time.ms 50, Kernsim.Time.ms 150)

let rocksdb_run ~with_batch b =
  let warmup, duration = short_run in
  ignore
    (Workloads.Rocksdb.run b
       { (Workloads.Rocksdb.default_params ~load_kreqs:30.0 ~with_batch ()) with warmup; duration })

let memcached_run mode b =
  let warmup, duration = short_run in
  ignore
    (Workloads.Memcached.run b
       { (Workloads.Memcached.default_params ~mode ~load_kreqs:100.0 ()) with warmup; duration })

let driver_goldens =
  let module S = Workloads.Setup in
  let module Mc = Workloads.Memcached in
  let arachne = S.Enoki_sched (module Schedulers.Arachne) in
  let rocksdb = rocksdb_run ~with_batch:false in
  [
    ("rocksdb/cfs", S.Cfs, rocksdb, "8b862b07cac3cfedad25012047d7c232");
    ("rocksdb/cfs+batch", S.Cfs, rocksdb_run ~with_batch:true, "0ae36c214b4c33a3cd8942b996879bca");
    ( "rocksdb/shinjuku",
      S.Enoki_sched (module Schedulers.Shinjuku),
      rocksdb,
      "ae80c30a2e794c5e8b695c782c591c18" );
    ( "rocksdb/ghost-sol",
      S.Ghost Schedulers.Ghost_sim.Sol,
      rocksdb,
      "16c83092e25c60c29d5ee38235712f59" );
    ("memcached/cfs", S.Cfs, memcached_run Mc.Cfs, "d93f99430519d25be9e05d56d920040c");
    ( "memcached/arachne-native",
      arachne,
      memcached_run Mc.Arachne_native,
      "3ef6954f8713e645e60bf29fb90dcf08" );
    ( "memcached/arachne-enoki",
      arachne,
      memcached_run Mc.Arachne_enoki,
      "63c827384bf4b8f4efba4e242d23a4ef" );
  ]

let driver_golden_cases =
  List.map
    (fun (name, kind, run, expected) ->
      Alcotest.test_case name `Quick (fun () ->
          check Alcotest.string name expected (Golden.ftrace_digest ~capacity:(1 lsl 18) kind run)))
    driver_goldens

(* ---------- fairness (appendix) ---------- *)

let test_fairness_colocated_5x () =
  let work = Kernsim.Time.ms 50 in
  let spread = Workloads.Fairness.fair_share (cfs ()) ~colocated:false ~work in
  let colocated = Workloads.Fairness.fair_share (cfs ()) ~colocated:true ~work in
  let ratio = Stats.Summary.mean colocated /. Stats.Summary.mean spread in
  check Alcotest.bool "~5x when sharing one core" true (ratio > 4.0 && ratio < 6.5)

let test_fairness_low_prio_finishes_last () =
  let work = Kernsim.Time.ms 50 in
  let normals, low = Workloads.Fairness.weighted (wfq ()) ~work in
  List.iter
    (fun n -> check Alcotest.bool "low-prio finishes after normals" true (low >= n))
    normals

let test_fairness_placement_stdev () =
  let work = Kernsim.Time.ms 50 in
  let _, stdev_stay = Workloads.Fairness.placement (cfs ()) ~move:false ~work in
  check Alcotest.bool "clean placement has tiny variation" true (stdev_stay < 0.01)

(* ---------- setup ---------- *)

let pipe_bytes_per_event ?tracer ~messages kind =
  let b = Workloads.Setup.build ?tracer ~topology:one_socket kind in
  let before = Profile.allocated_bytes () in
  ignore (Workloads.Pipe_bench.run b ~messages ());
  let after = Profile.allocated_bytes () in
  (after -. before) /. float_of_int (Kernsim.Machine.events_dispatched b.Workloads.Setup.machine)

(* Zero-alloc proof for the event hot path: with tracing and metrics off
   (the default [Setup.build]), a pinned pipe-bench segment must allocate
   (amortised) almost nothing per dispatched event.  The ceiling of 8
   bytes/event leaves room for the fixed setup cost (task spawn, channels,
   behaviour closures) spread over the run while still failing loudly if
   any per-event boxing sneaks back in — a single 3-word record per event
   would read as ~24 B/event here. *)
let check_pipe_bytes_per_event ?tracer ?(messages = 5_000) kind ~ceiling =
  let per_event = pipe_bytes_per_event ?tracer ~messages kind in
  Alcotest.check Alcotest.bool
    (Printf.sprintf "bytes/event %.2f below %.1f" per_event ceiling)
    true (per_event < ceiling)

let test_pipe_zero_alloc () = check_pipe_bytes_per_event Workloads.Setup.Cfs ~ceiling:8.0

(* The same segment routed through Enoki-C into WFQ.  The crossing and the
   module's hooks allocate nothing (tokens are immediate ints), so it is
   held to the CFS ceiling: a boxed token per wakeup would read ~19. *)
let test_pipe_wfq_alloc () =
  check_pipe_bytes_per_event ~messages:20_000
    (Workloads.Setup.Enoki_sched (module Schedulers.Wfq))
    ~ceiling:8.0

(* Tracing the same segment adds nothing per event: the machine's, the
   boundary's and the lock tap's events all go into the rings' int
   columns.  No subscriber is attached, and the rings are allocated before
   the measurement starts. *)
let test_pipe_wfq_traced_alloc () =
  let tracer = Trace.Tracer.create ~nr_cpus:(Kernsim.Topology.nr_cpus one_socket) () in
  check_pipe_bytes_per_event ~tracer ~messages:20_000
    (Workloads.Setup.Enoki_sched (module Schedulers.Wfq))
    ~ceiling:8.0;
  check Alcotest.bool "lock and message events traced" true (Trace.Tracer.emitted tracer > 0)

(* The reading is exact, not a snapshot of the last minor collection:
   identical runs allocate identical bytes wherever the collections fall. *)
let test_pipe_bytes_repeatable () =
  let read () =
    pipe_bytes_per_event ~messages:10_000 (Workloads.Setup.Enoki_sched (module Schedulers.Wfq))
  in
  let first = read () in
  for _ = 1 to 2 do
    check (Alcotest.float 0.0) "identical runs, identical bytes/event" first (read ())
  done

let test_setup_labels () =
  check Alcotest.string "cfs" "cfs" (Workloads.Setup.label Workloads.Setup.Cfs);
  check Alcotest.string "ghost" "ghost-sol"
    (Workloads.Setup.label (Workloads.Setup.Ghost Schedulers.Ghost_sim.Sol));
  check Alcotest.string "enoki" "enoki:wfq"
    (Workloads.Setup.label (Workloads.Setup.Enoki_sched (module Schedulers.Wfq)))

let test_setup_agent_core () =
  let g = build (Workloads.Setup.Ghost Schedulers.Ghost_sim.Sol) in
  check Alcotest.(option int) "sol reserves last cpu" (Some 7) g.agent_core;
  let c = cfs () in
  check Alcotest.(option int) "cfs reserves none" None c.agent_core

let () =
  Alcotest.run "workloads"
    [
      ( "pipe",
        [
          Alcotest.test_case "completes" `Quick test_pipe_completes;
          Alcotest.test_case "same-core cheaper" `Quick test_pipe_same_core_cheaper_than_cross;
          Alcotest.test_case "enoki overhead bounded" `Quick test_pipe_enoki_overhead_positive;
          Alcotest.test_case "userlevel fast" `Quick test_pipe_userlevel_is_fast;
        ] );
      ( "schbench",
        [
          Alcotest.test_case "produces samples" `Quick test_schbench_produces_samples;
          Alcotest.test_case "pinned tail worse" `Quick test_schbench_pinned_tail_worse;
          Alcotest.test_case "hints beat random" `Quick test_schbench_hints_beat_random;
        ] );
      ( "apps",
        [
          Alcotest.test_case "all families complete" `Quick test_apps_all_families_complete;
          Alcotest.test_case "catalog sizes" `Quick test_apps_catalog_sizes;
          Alcotest.test_case "wfq close to cfs" `Quick test_apps_wfq_close_to_cfs;
        ] );
      ( "rocksdb",
        [
          Alcotest.test_case "achieves offered load" `Quick test_rocksdb_achieves_offered_load;
          Alcotest.test_case "shinjuku beats cfs tail" `Quick test_rocksdb_shinjuku_beats_cfs_tail;
          Alcotest.test_case "batch share declines" `Quick test_rocksdb_batch_share_declines;
        ] );
      ( "memcached",
        [
          Alcotest.test_case "cfs serves" `Quick test_memcached_cfs_serves;
          Alcotest.test_case "arachne scales cores" `Quick test_memcached_arachne_scales_cores;
        ] );
      ("driver streams", driver_golden_cases);
      ( "fairness",
        [
          Alcotest.test_case "colocated 5x" `Quick test_fairness_colocated_5x;
          Alcotest.test_case "low prio last" `Quick test_fairness_low_prio_finishes_last;
          Alcotest.test_case "placement stdev" `Quick test_fairness_placement_stdev;
        ] );
      ( "setup",
        [
          Alcotest.test_case "labels" `Quick test_setup_labels;
          Alcotest.test_case "agent core" `Quick test_setup_agent_core;
          Alcotest.test_case "pipe hot path zero-alloc" `Quick test_pipe_zero_alloc;
          Alcotest.test_case "pipe wfq under 32 B/event" `Quick test_pipe_wfq_alloc;
          Alcotest.test_case "pipe wfq traced under 32 B/event" `Quick test_pipe_wfq_traced_alloc;
          Alcotest.test_case "pipe bytes/event repeatable" `Quick test_pipe_bytes_repeatable;
        ] );
    ]
