(* The reproduction harness: one section per table and figure of the
   paper's evaluation (§5), plus the gated suites that measure the simulator
   itself.

     dune exec bench/main.exe                      -- everything
     dune exec bench/main.exe -- table3 fig2a ...  -- a subset

   Simulated results are printed next to the paper's numbers where the
   paper reports scalars.  Absolute values come from a calibrated simulator
   (see DESIGN.md); the claim under reproduction is the *shape*: who wins,
   by roughly what factor, and where the crossovers sit. *)

module M = Kernsim.Machine
module T = Kernsim.Task

let one_socket = Kernsim.Topology.one_socket

let two_socket = Kernsim.Topology.two_socket

(* ---------- schedtrace options ----------

   --trace=PATH / --trace-format=chrome|ftrace / --sanitize apply to every
   machine the experiments build; traces are exported and the sanitizer
   verdicts reported after the experiments finish. *)

let trace_format = ref Trace.Export.Chrome

let sanitize = ref false

(* --seed=N overrides every workload's PRNG seed (each workload has its own
   canonical default, printed in the run header, so results are reproducible
   either way) *)
let seed : int option ref = ref None

let seed_or d = Option.value !seed ~default:d

let schbench_params () = Workloads.Schbench.default_params ?seed:!seed ()

let rocksdb_params ~load_kreqs ~with_batch =
  Workloads.Rocksdb.default_params ?seed:!seed ~load_kreqs ~with_batch ()

let memcached_params ~mode ~load_kreqs =
  Workloads.Memcached.default_params ?seed:!seed ~mode ~load_kreqs ()

(* ---------- -j N: the domain pool ----------

   Bench cells are independent simulations — each builds its own machine,
   registry and tracer, and its module owns its locks — so the matrix experiments (perf, dsq)
   compute their rows with a small pool of domains and print them in input
   order afterwards.  Tables are byte-identical to a sequential run (the
   simulations are deterministic); only wall clock changes.  Trace export
   (--trace=) names files by registration order, so tracing forces the
   pool down to one domain. *)

let jobs = ref 1

let trace_path : string option ref = ref None

let effective_jobs () = if !trace_path <> None then 1 else max 1 !jobs

(* bytes allocated inside the pool's domains, for the per-experiment
   footer (Gc.allocated_bytes is domain-local) *)
let cells_allocated = Atomic.make 0

(* one shared pool for the whole bench run, spawned lazily on the first
   parallel batch and parked between batches *)
let the_pool : Ds.Domain_pool.t option ref = ref None

let get_pool () =
  match !the_pool with
  | Some p -> p
  | None ->
    let p = Ds.Domain_pool.create ~domains:(effective_jobs ()) () in
    the_pool := Some p;
    p

let () = at_exit (fun () -> Option.iter Ds.Domain_pool.shutdown !the_pool)

let parallel_map (xs : 'a list) ~(f : 'a -> 'b) : 'b list =
  if effective_jobs () <= 1 || List.length xs <= 1 then List.map f xs
  else begin
    (* each cell reads its own domain's counters *)
    let measured x =
      let a0 = Profile.allocated_bytes () in
      let y = f x in
      ignore
        (Atomic.fetch_and_add cells_allocated
           (int_of_float (Profile.allocated_bytes () -. a0)));
      y
    in
    Ds.Domain_pool.map_list (get_pool ()) xs ~f:measured
  end

(* set when any gate check fails: the run exits 4 *)
let gate_failed = ref false

let judge ?base ?error ~suite rows =
  let o = Gate.diff ?base ~suite rows in
  let o = match error with Some e -> { o with Gate.failures = ([], e) :: o.failures } | None -> o in
  if not (Gate.report ~suite rows o) then gate_failed := true

let traced : (string * Trace.Tracer.t * Trace.Sanitizer.t option) list ref = ref []

let traced_mutex = Mutex.create ()

let add_traced entry = Mutex.protect traced_mutex (fun () -> traced := entry :: !traced)

let build ?costs ?record ~topology kind =
  if !trace_path = None && not !sanitize then
    Workloads.Setup.build ?costs ?record ~topology kind
  else begin
    let nr_cpus = Kernsim.Topology.nr_cpus topology in
    let tracer = Trace.Tracer.create ~nr_cpus () in
    let sanitizer =
      if !sanitize then begin
        let s = Trace.Sanitizer.create ~nr_cpus () in
        Trace.Sanitizer.attach s tracer;
        Some s
      end
      else None
    in
    add_traced (Workloads.Setup.label kind, tracer, sanitizer);
    Workloads.Setup.build ?costs ?record ~tracer ~topology kind
  end

let finish_tracing () =
  let entries = List.rev !traced in
  (match !trace_path with
  | None -> ()
  | Some base ->
    List.iteri
      (fun i (label, tracer, _) ->
        let path =
          if List.length entries = 1 then base else Printf.sprintf "%s.%d-%s" base i label
        in
        let events = Trace.Tracer.events tracer in
        (try Trace.Export.save ~path !trace_format events
         with Sys_error msg ->
           Printf.eprintf "cannot write trace: %s\n" msg;
           exit 2);
        Printf.printf "trace: %s -> %s (%d events, %d dropped)\n" label path
          (List.length events) (Trace.Tracer.dropped tracer))
      entries);
  if !sanitize && entries <> [] then begin
    Report.section "Sanitizer summary";
    List.iter
      (fun (label, _, sanitizer) ->
        match sanitizer with
        | Some s ->
          Printf.printf "  %-24s %9d events, %d violations\n" label
            (Trace.Sanitizer.events_seen s)
            (List.length (Trace.Sanitizer.violations s));
          if not (Trace.Sanitizer.ok s) then print_endline (Trace.Sanitizer.report_string s)
        | None -> ())
      entries
  end

(* the scheduler matrix of Tables 3 and 4 *)
let matrix =
  [
    ("CFS", `Kind Workloads.Setup.Cfs);
    ("GhOSt SOL", `Kind (Workloads.Setup.Ghost Schedulers.Ghost_sim.Sol));
    ("GhOSt FIFO", `Kind (Workloads.Setup.Ghost Schedulers.Ghost_sim.Fifo_per_cpu));
    ("WFQ", `Kind (Workloads.Setup.Enoki_sched (module Schedulers.Wfq)));
    ("Shinjuku", `Kind (Workloads.Setup.Enoki_sched (module Schedulers.Shinjuku)));
    ("Locality", `Kind (Workloads.Setup.Enoki_sched (module Schedulers.Locality)));
    ("Arachne", `Userlevel);
  ]

(* ---------- Table 3: perf bench sched pipe ---------- *)

let table3 () =
  Report.section "Table 3: sched-pipe message latency (us per wakeup)";
  let paper = [ ("CFS", (3.0, 3.6)); ("GhOSt SOL", (6.0, 5.8)); ("GhOSt FIFO", (9.1, 7.0));
                ("WFQ", (3.6, 4.0)); ("Shinjuku", (4.0, 4.4)); ("Locality", (3.5, 3.9));
                ("Arachne", (0.1, 0.2)) ] in
  let messages = 50_000 in
  let rows =
    List.map
      (fun (name, how) ->
        let run ~same_core =
          match how with
          | `Kind kind ->
            (Workloads.Pipe_bench.run (build ~topology:one_socket kind) ~same_core ~messages ())
              .Workloads.Pipe_bench.us_per_wakeup
          | `Userlevel ->
            (Workloads.Pipe_bench.run_userlevel
               (build ~topology:one_socket Workloads.Setup.Cfs)
               ~same_core ~messages ())
              .Workloads.Pipe_bench.us_per_wakeup
        in
        let one = run ~same_core:true and two = run ~same_core:false in
        let p1, p2 = List.assoc name paper in
        [ name; Report.fmt_f2 one; Report.fmt_f1 p1; Report.fmt_f2 two; Report.fmt_f1 p2 ])
      matrix
  in
  Report.table
    ~header:[ "scheduler"; "one core"; "(paper)"; "two cores"; "(paper)" ]
    rows

(* ---------- Table 4: schbench scalability ---------- *)

let table4 () =
  Report.section "Table 4: schbench wakeup latency, 80-core box (us)";
  let paper =
    [ ("CFS", (74, 101, 139, 320)); ("GhOSt SOL", (66, 132, 192, 1354));
      ("GhOSt FIFO", (101, 170, 152, 1806)); ("WFQ", (78, 104, 170, 323));
      ("Shinjuku", (79, 109, 168, 307)); ("Locality", (80, 105, 175, 324));
      ("Arachne", (1, 1, 1, 1)) ]
  in
  let run_one how workers =
    let params =
      { (schbench_params ()) with
        workers;
        warmup = Kernsim.Time.ms 500;
        duration = Kernsim.Time.ms 1500;
      }
    in
    match how with
    | `Kind kind -> Workloads.Schbench.run (build ~topology:two_socket kind) params
    | `Userlevel ->
      Workloads.Schbench.run_userlevel (build ~topology:two_socket Workloads.Setup.Cfs) params
  in
  let rows =
    List.map
      (fun (name, how) ->
        let small = run_one how 2 in
        let large = run_one how 40 in
        let p50s, p99s, p50l, p99l = List.assoc name paper in
        [
          name;
          Report.fmt_f1 (Kernsim.Time.to_us small.Workloads.Schbench.p50);
          Report.fmt_f1 (Kernsim.Time.to_us small.Workloads.Schbench.p99);
          Printf.sprintf "(%d/%d)" p50s p99s;
          Report.fmt_f1 (Kernsim.Time.to_us large.Workloads.Schbench.p50);
          Report.fmt_f1 (Kernsim.Time.to_us large.Workloads.Schbench.p99);
          Printf.sprintf "(%d/%d)" p50l p99l;
        ])
      matrix
  in
  Report.table
    ~header:
      [ "scheduler"; "2 tasks p50"; "p99"; "(paper p50/p99)"; "40 tasks p50"; "p99";
        "(paper p50/p99)" ]
    rows;
  Report.note "paper: 2 message threads with 2 or 40 workers each; shapes to match:";
  Report.note "ghOSt tails blow up at 40 workers; WFQ/Shinjuku/Locality track CFS; Arachne ~1us."

(* ---------- Table 5: NAS + Phoronix application suite ---------- *)

let table5 () =
  Report.section "Table 5: application benchmarks, CFS vs Enoki WFQ (percent slowdown)";
  let run_app kind app =
    (Workloads.Apps.run (build ~topology:one_socket kind) app).Workloads.Apps.score
  in
  let bench_rows apps =
    List.map
      (fun (app : Workloads.Apps.app) ->
        let cfs = run_app Workloads.Setup.Cfs app in
        let wfq = run_app (Workloads.Setup.Enoki_sched (module Schedulers.Wfq)) app in
        let diff = Stats.Summary.percent_diff ~baseline:cfs ~value:wfq in
        (app.Workloads.Apps.name, cfs, wfq, diff))
      apps
  in
  let nas = bench_rows Workloads.Apps.nas in
  let phoronix = bench_rows Workloads.Apps.phoronix in
  let to_row (name, cfs, wfq, diff) =
    [ name; Printf.sprintf "%.1f" cfs; Printf.sprintf "%.1f" wfq; Report.fmt_pct diff ]
  in
  Report.note "NAS Parallel Benchmarks (synthetic analogues, score = work/s):";
  Report.table ~header:[ "benchmark"; "CFS"; "WFQ"; "diff" ] (List.map to_row nas);
  Report.note "";
  Report.note "Phoronix multicore (synthetic analogues):";
  Report.table ~header:[ "benchmark"; "CFS"; "WFQ"; "diff" ] (List.map to_row phoronix);
  let all = nas @ phoronix in
  let diffs = List.map (fun (_, _, _, d) -> d) all in
  let geo = Stats.Summary.geomean diffs in
  let worst = List.fold_left Float.max neg_infinity diffs in
  Report.note "";
  Report.note (Printf.sprintf "geometric mean of |diff| = %.2f%%   (paper: 0.74%%)" geo);
  Report.note (Printf.sprintf "max slowdown          = %.2f%%   (paper: 8.57%%)" worst)

(* ---------- Figure 2: RocksDB + Shinjuku ---------- *)

let fig2_kinds =
  [
    ("CFS", Workloads.Setup.Cfs);
    ("ghOSt-Shinjuku", Workloads.Setup.Ghost Schedulers.Ghost_sim.Gshinjuku);
    ("Enoki-Shinjuku", Workloads.Setup.Enoki_sched (module Schedulers.Shinjuku));
  ]

let fig2_loads = [ 20.; 30.; 40.; 50.; 60.; 70.; 80. ]

let fig2_run ~with_batch =
  List.map
    (fun load ->
      ( load,
        List.map
          (fun (name, kind) ->
            let b = build ~topology:one_socket kind in
            ( name,
              Workloads.Rocksdb.run b (rocksdb_params ~load_kreqs:load ~with_batch) ))
          fig2_kinds ))
    fig2_loads

let fig2a () =
  Report.section "Figure 2a: RocksDB 99% latency (us) vs load, no batch";
  let results = fig2_run ~with_batch:false in
  Report.table
    ~header:("load (k req/s)" :: List.map fst fig2_kinds)
    (List.map
       (fun (load, per) ->
         Printf.sprintf "%.0f" load
         :: List.map (fun (_, (p : Workloads.Rocksdb.point)) -> Report.fmt_f1 p.p99_us) per)
       results);
  Report.note "shape to match (paper, log-scale): CFS climbs to 10^3-10^4 us well before";
  Report.note "saturation; both Shinjuku schedulers stay at 10^1-10^2 us until ~80k, with";
  Report.note "Enoki ~30% below ghOSt at high load."

let fig2bc () =
  Report.section "Figure 2b: RocksDB 99% latency (us) vs load, batch co-located";
  let results = fig2_run ~with_batch:true in
  Report.table
    ~header:("load (k req/s)" :: List.map fst fig2_kinds)
    (List.map
       (fun (load, per) ->
         Printf.sprintf "%.0f" load
         :: List.map (fun (_, (p : Workloads.Rocksdb.point)) -> Report.fmt_f1 p.p99_us) per)
       results);
  Report.note "shape: Shinjuku tails unaffected by the batch app; CFS tail worsens.";
  Report.section "Figure 2c: CPU share of the co-located batch app (cores)";
  Report.table
    ~header:("load (k req/s)" :: List.map fst fig2_kinds)
    (List.map
       (fun (load, per) ->
         Printf.sprintf "%.0f" load
         :: List.map (fun (_, (p : Workloads.Rocksdb.point)) -> Report.fmt_f2 p.batch_cpus) per)
       results);
  Report.note "shape: CFS and Enoki give the batch app a similar declining share;";
  Report.note "ghOSt gives less (the userspace scheduler eats cycles)."

(* ---------- Table 6: locality hints ---------- *)

let table6 () =
  Report.section "Table 6: modified schbench wakeup latency with locality hints (us)";
  let run kind ~hints ~pin =
    let params =
      { (schbench_params ()) with
        Workloads.Schbench.messages = 2;
        workers = 2;
        warmup = Kernsim.Time.ms 500;
        duration = Kernsim.Time.sec 2;
        locality_hints = hints;
        pin_one_core = pin;
      }
    in
    Workloads.Schbench.run (build ~topology:one_socket kind) params
  in
  let configs =
    [
      ("CFS", run Workloads.Setup.Cfs ~hints:false ~pin:false, (33, 50));
      ("CFS One Core", run Workloads.Setup.Cfs ~hints:false ~pin:true, (17, 32032));
      ( "Random (no hints)",
        run (Workloads.Setup.Enoki_sched (module Schedulers.Locality)) ~hints:false ~pin:false,
        (46, 49) );
      ( "Hints",
        run (Workloads.Setup.Enoki_sched (module Schedulers.Locality)) ~hints:true ~pin:false,
        (2, 4) );
    ]
  in
  Report.table
    ~header:[ "config"; "p50"; "p99"; "(paper p50/p99)" ]
    (List.map
       (fun (name, (r : Workloads.Schbench.result), (p50, p99)) ->
         [
           name;
           Report.fmt_f1 (Kernsim.Time.to_us r.p50);
           Report.fmt_f1 (Kernsim.Time.to_us r.p99);
           Printf.sprintf "(%d/%d)" p50 p99;
         ])
       configs);
  Report.note "shape: hints beat CFS and random placement; pinning everything to one";
  Report.note "core destroys the tail."

(* ---------- Figure 3: memcached + Arachne ---------- *)

let fig3 () =
  Report.section "Figure 3: memcached 99% latency (us) vs load";
  let modes =
    [
      ("CFS", Workloads.Memcached.Cfs, Workloads.Setup.Cfs);
      ( "Arachne",
        Workloads.Memcached.Arachne_native,
        Workloads.Setup.Enoki_sched (module Schedulers.Arachne) );
      ( "Enoki-Arachne",
        Workloads.Memcached.Arachne_enoki,
        Workloads.Setup.Enoki_sched (module Schedulers.Arachne) );
    ]
  in
  let loads = [ 50.; 100.; 150.; 200.; 250.; 300.; 350.; 390. ] in
  let results =
    List.map
      (fun load ->
        ( load,
          List.map
            (fun (name, mode, kind) ->
              let b = build ~topology:one_socket kind in
              ( name, Workloads.Memcached.run b (memcached_params ~mode ~load_kreqs:load) ))
            modes ))
      loads
  in
  Report.table
    ~header:("load (k req/s)" :: List.map (fun (n, _, _) -> n) modes)
    (List.map
       (fun (load, per) ->
         Printf.sprintf "%.0f" load
         :: List.map (fun (_, (p : Workloads.Memcached.point)) -> Report.fmt_f1 p.p99_us) per)
       results);
  Report.note "";
  Report.note "server cores held (Arachne scales 2-7, CFS uses all 8):";
  Report.table
    ~header:("load (k req/s)" :: List.map (fun (n, _, _) -> n) modes)
    (List.map
       (fun (load, per) ->
         Printf.sprintf "%.0f" load
         :: List.map (fun (_, (p : Workloads.Memcached.point)) -> Report.fmt_f2 p.avg_cores) per)
       results);
  Report.note "shape: Enoki-Arachne tracks native Arachne; both beat CFS at high load."

(* ---------- §5.7: live upgrade ---------- *)

let upgrade () =
  Report.section "Live upgrade pause (5.7)";
  let measure ~topology ~workers =
    let b = build ~topology (Workloads.Setup.Enoki_sched (module Schedulers.Wfq)) in
    let params =
      { (schbench_params ()) with
        Workloads.Schbench.workers;
        warmup = Kernsim.Time.ms 50;
        duration = Kernsim.Time.ms 400;
      }
    in
    let e = Option.get b.Workloads.Setup.enoki in
    let pauses = ref [] in
    (* three upgrades, averaged, as the paper averages three runs *)
    List.iter
      (fun delay ->
        M.at b.Workloads.Setup.machine ~delay (fun () ->
            match Enoki.Enoki_c.upgrade e (module Schedulers.Wfq) with
            | Ok s -> pauses := Kernsim.Time.to_us s.Enoki.Upgrade.pause :: !pauses
            | Error exn -> raise exn))
      [ Kernsim.Time.ms 100; Kernsim.Time.ms 200; Kernsim.Time.ms 300 ];
    ignore (Workloads.Schbench.run b params);
    Stats.Summary.mean !pauses
  in
  let rows =
    [
      ("one socket, 2 msg x 2 workers", measure ~topology:one_socket ~workers:2, 1.5);
      ("two socket, 2 msg x 2 workers", measure ~topology:two_socket ~workers:2, 9.9);
      ("two socket, 2 msg x 40 workers", measure ~topology:two_socket ~workers:40, 10.1);
    ]
  in
  Report.table
    ~header:[ "configuration"; "pause (us)"; "paper (us)" ]
    (List.map (fun (n, v, p) -> [ n; Report.fmt_f2 v; Report.fmt_f1 p ]) rows);
  Report.note "shape: microsecond-scale pause, growing with machine/task-state size."

(* §5.8 record/replay lives after the speed suite: it shares the
   Profile.allocated_bytes measurement pattern and the JSON snapshot plumbing. *)

(* ---------- Appendix A.1: WFQ functional equivalence ---------- *)

let appendix () =
  Report.section "Appendix A.1: WFQ functional equivalence";
  let work = Kernsim.Time.ms 200 in
  let both f =
    let cfs = f (build ~topology:one_socket Workloads.Setup.Cfs) in
    let wfq =
      f (build ~topology:one_socket (Workloads.Setup.Enoki_sched (module Schedulers.Wfq)))
    in
    (cfs, wfq)
  in
  let c_spread, w_spread = both (fun b -> Workloads.Fairness.fair_share b ~colocated:false ~work) in
  let c_col, w_col = both (fun b -> Workloads.Fairness.fair_share b ~colocated:true ~work) in
  Report.table
    ~header:[ "experiment"; "CFS (s)"; "WFQ (s)" ]
    [
      [
        "5 hogs spread: mean completion";
        Report.fmt_f2 (Stats.Summary.mean c_spread);
        Report.fmt_f2 (Stats.Summary.mean w_spread);
      ];
      [
        "5 hogs one core: mean completion";
        Report.fmt_f2 (Stats.Summary.mean c_col);
        Report.fmt_f2 (Stats.Summary.mean w_col);
      ];
    ];
  Report.note "expected: ~5x longer when co-located; identical across schedulers";
  let (c_norm, c_low), (w_norm, w_low) = both (fun b -> Workloads.Fairness.weighted b ~work) in
  Report.table
    ~header:[ "experiment"; "CFS (s)"; "WFQ (s)" ]
    [
      [
        "4 normal hogs mean completion";
        Report.fmt_f2 (Stats.Summary.mean c_norm);
        Report.fmt_f2 (Stats.Summary.mean w_norm);
      ];
      [ "nice-19 hog completion"; Report.fmt_f2 c_low; Report.fmt_f2 w_low ];
    ];
  Report.note "expected: the minimum-priority hog finishes last on both schedulers";
  let c_stay, w_stay = both (fun b -> Workloads.Fairness.placement b ~move:false ~work) in
  let c_move, w_move = both (fun b -> Workloads.Fairness.placement b ~move:true ~work) in
  Report.table
    ~header:[ "experiment"; "CFS mean/stdev (s)"; "WFQ mean/stdev (s)" ]
    [
      [
        "1 hog per core";
        Printf.sprintf "%.3f / %.4f" (fst c_stay) (snd c_stay);
        Printf.sprintf "%.3f / %.4f" (fst w_stay) (snd w_stay);
      ];
      [
        "with forced move";
        Printf.sprintf "%.3f / %.4f" (fst c_move) (snd c_move);
        Printf.sprintf "%.3f / %.4f" (fst w_move) (snd w_move);
      ];
    ];
  Report.note "expected: same means; WFQ shows more completion variation after a forced move"

(* ---------- Table 2 analogue: component sizes ---------- *)

let loc () =
  Report.section "Table 2 analogue: lines of code of our components";
  let count_dir dir =
    if Sys.file_exists dir && Sys.is_directory dir then
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli")
      |> List.fold_left
           (fun acc f ->
             let ic = open_in (Filename.concat dir f) in
             let n = ref 0 in
             (try
                while true do
                  ignore (input_line ic);
                  incr n
                done
              with End_of_file -> close_in ic);
             acc + !n)
           0
    else -1
  in
  let rows =
    List.filter_map
      (fun (name, dir, paper) ->
        let n = count_dir dir in
        if n >= 0 then Some [ name; string_of_int n; paper ] else None)
      [
        ("kernel simulator (Enoki-C analogue + sched core)", "lib/kernsim", "Enoki-C: 2411 (C)");
        ("Enoki framework (libEnoki analogue)", "lib/core", "libEnoki: 962+5870 (Rust)");
        ( "schedulers (FIFO/WFQ/Shinjuku/Locality/Arachne/ghOSt)",
          "lib/schedulers",
          "646+285+203+579 (Rust)" );
        ("workload generators", "lib/workloads", "benchmark suites");
        ("data structures", "lib/ds", "-");
      ]
  in
  if rows = [] then Report.note "sources not found (run from the repository root)"
  else Report.table ~header:[ "component"; "LoC"; "paper analogue" ] rows

(* ---------- ablations of the design choices DESIGN.md calls out ---------- *)

let ablation () =
  Report.section "Ablation: Shinjuku preemption slice (RocksDB @ 55k req/s)";
  (* §4.2.2 picks 10us "to prevent overloading the scheduler"; sweep it *)
  let rows =
    List.map
      (fun slice_us ->
        let module S = struct
          include Schedulers.Shinjuku
          let name = Printf.sprintf "shinjuku-%dus" slice_us
          let create ctx = make ctx ~slice:(Kernsim.Time.us slice_us)
        end in
        let b = build ~topology:one_socket (Workloads.Setup.Enoki_sched (module S)) in
        let r = Workloads.Rocksdb.run b (rocksdb_params ~load_kreqs:55.0 ~with_batch:false) in
        [
          Printf.sprintf "%d us" slice_us;
          Report.fmt_f1 r.Workloads.Rocksdb.p50_us;
          Report.fmt_f1 r.Workloads.Rocksdb.p99_us;
          Report.fmt_f1 r.Workloads.Rocksdb.achieved_kreqs;
        ])
      [ 2; 5; 10; 50; 250 ]
  in
  Report.table ~header:[ "slice"; "p50 (us)"; "p99 (us)"; "achieved (k/s)" ] rows;
  Report.note "expected: tiny slices burn throughput on preemption overhead; large";
  Report.note "slices let range queries block GETs; 5-10us is the sweet spot.";

  Report.section "Ablation: Enoki per-invocation overhead (sched-pipe, two cores)";
  (* the paper measures 100-150ns/invocation; what if the framework cost more? *)
  let rows =
    List.map
      (fun call_ns ->
        let costs = { Kernsim.Costs.default with enoki_call = call_ns } in
        let b =
          build ~costs ~topology:one_socket (Workloads.Setup.Enoki_sched (module Schedulers.Wfq))
        in
        let r = Workloads.Pipe_bench.run b ~messages:20_000 () in
        [ Printf.sprintf "%d ns" call_ns; Report.fmt_f2 r.Workloads.Pipe_bench.us_per_wakeup ])
      [ 0; 125; 250; 500; 1000; 2000 ]
  in
  Report.table ~header:[ "per-call overhead"; "us/wakeup" ] rows;
  Report.note "expected: ~4 invocations per schedule op, so us/wakeup grows by ~4x the";
  Report.note "per-call cost; at 125ns (measured by the paper) Enoki stays within ~0.6us of CFS.";

  Report.section "Ablation: WFQ idle-stealing (skewed tasks, completion score)";
  let unbalanced =
    {
      Workloads.Apps.name = "skewed";
      unit_ = "score";
      seed = seed_or 33;
      family = Workloads.Apps.Unbalanced { tasks = 12; base = Kernsim.Time.ms 4; skew = 3.0; steps = 12 };
    }
  in
  let steal =
    (Workloads.Apps.run
       (build ~topology:one_socket (Workloads.Setup.Enoki_sched (module Schedulers.Wfq)))
       unbalanced)
      .Workloads.Apps.score
  in
  let module NS = struct
    include Schedulers.Wfq
    let name = "wfq-nosteal"
    let balance _ ~cpu:_ = -1
  end in
  let nosteal =
    (Workloads.Apps.run
       (build ~topology:one_socket (Workloads.Setup.Enoki_sched (module NS)))
       unbalanced)
      .Workloads.Apps.score
  in
  Report.table
    ~header:[ "variant"; "score"; "vs stealing" ]
    [
      [ "wfq (steals when idle)"; Report.fmt_f1 steal; "-" ];
      [
        "wfq-nosteal";
        Report.fmt_f1 nosteal;
        Report.fmt_pct (Stats.Summary.percent_diff ~baseline:steal ~value:nosteal);
      ];
    ];
  Report.note "expected: without §4.2.1's longest-queue stealing, skewed task lengths";
  Report.note "strand work behind long tasks and the score drops.";

  Report.section "Ablation: record ring capacity vs dropped events";
  let rows =
    List.map
      (fun capacity ->
        let record = Enoki.Record.create ~capacity () in
        let b =
          build ~record ~topology:one_socket (Workloads.Setup.Enoki_sched (module Schedulers.Wfq))
        in
        ignore (Workloads.Pipe_bench.run b ~messages:5_000 ());
        Enoki.Record.drain record;
        [
          string_of_int capacity;
          string_of_int (Enoki.Record.length record);
          string_of_int (Enoki.Record.dropped record);
        ])
      [ 64; 1024; 65536 ]
  in
  Report.table ~header:[ "ring capacity"; "lines kept"; "lines dropped" ] rows;
  Report.note "the paper: \"if the buffer overruns, events may be dropped\" -- quantified.";

  Report.section "Ablation: Nest-style warm cores vs CFS (sparse periodic load)";
  let sparse_run kind =
    let b = build ~topology:one_socket kind in
    let m = b.Workloads.Setup.machine in
    for i = 1 to 6 do
      let beh =
        let left = ref 1500 and st = ref `Work in
        fun (_ : T.ctx) ->
          match !st with
          | `Work ->
            if !left = 0 then T.exit
            else begin
              decr left;
              st := `Sleep;
              T.compute (Kernsim.Time.us 50)
            end
          | `Sleep ->
            st := `Work;
            T.sleep (Kernsim.Time.us 250)
      in
      ignore
        (M.spawn m
           { (T.default_spec ~name:(Printf.sprintf "sparse%d" i) beh) with
             T.policy = b.Workloads.Setup.policy })
    done;
    M.run_for m (Kernsim.Time.sec 1);
    let mets = M.metrics m in
    let cores =
      List.length
        (List.filter
           (fun c -> Kernsim.Accounting.busy_of_cpu mets c > Kernsim.Time.us 100)
           (List.init 8 Fun.id))
    in
    let p50 = Stats.Histogram.percentile (Kernsim.Accounting.wakeup_latency mets) 50.0 in
    (cores, p50)
  in
  let cfs_cores, cfs_p50 = sparse_run Workloads.Setup.Cfs in
  let nest_cores, nest_p50 = sparse_run (Workloads.Setup.Enoki_sched (module Schedulers.Nest)) in
  Report.table
    ~header:[ "scheduler"; "cores touched"; "wakeup p50" ]
    [
      [ "CFS"; string_of_int cfs_cores; Kernsim.Time.to_string cfs_p50 ];
      [ "Nest (Enoki)"; string_of_int nest_cores; Kernsim.Time.to_string nest_p50 ];
    ];
  Report.note "expected (Nest, EuroSys '22, cited in the paper's motivation): reusing";
  Report.note "warm cores touches fewer cores AND wakes faster -- cold cores pay the";
  Report.note "deep idle-state exit on every wakeup."

(* ---------- the gated suites ----------

   perf, speed, dsq, fleet and obs each emit Gate rows.  `bench <suite>`
   prints them and writes BENCH_<suite>.json, the versioned snapshot CI
   archives; `bench gate [suite...]` also diffs them against
   bench/baselines/BENCH_<suite>.json.  With --quick a suite is named
   <suite>-quick.  The simulated columns are deterministic for a fixed
   seed, so tolerances only absorb intentional cost-model churn; wall
   clock is judged only as same-run ratchets. *)

let quick = ref false

let tail = Gate.Rel (Lower, 0.25)

let throughput = Gate.Rel (Higher, 0.10)

let bytes = Gate.Rel (Lower, 0.20)

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let rev = try String.trim (input_line ic) with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if rev = "" then "unknown" else rev
  with _ -> "unknown"

let suite_id name = if !quick then name ^ "-quick" else name

let write_snapshot id rows =
  let path = Printf.sprintf "BENCH_%s.json" id in
  let git_rev = git_rev () in
  Metrics.Json.save ~path (Gate.to_json ~suite:id ~git_rev ~seed:!seed rows);
  Printf.printf "wrote %s (git %s)\n" path git_rev

(* best of [n] wall-clock readings of [f ()] seconds; host noise only
   ever slows a run down *)
let best_of n f = List.fold_left (fun acc _ -> Float.min acc (f ())) infinity (List.init n Fun.id)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ---------- perf: the scheduler matrix with metrics and profiler on ----------

   Every registry scheduler with the metrics registry and the Enoki-C
   self-profiler attached.  Core arbiters (activations are dispatched only
   once their runtime requests cores) are driven by the memcached runtime
   instead of raw pipe tasks. *)

let pipe_throughput (r : Workloads.Pipe_bench.result) =
  if r.elapsed > 0 then float_of_int r.wakeups /. (float_of_int r.elapsed /. 1e9) else 0.

let perf_rows () =
  let messages = if !quick then 2_000 else 20_000 in
  parallel_map Schedulers.Registry.all ~f:(fun (e : Schedulers.Registry.entry) ->
      let reg = Metrics.Registry.create () in
      let prof = Profile.create () in
      let b =
        Workloads.Setup.build ~registry:reg ~profile:prof ~topology:one_socket
          (Workloads.Setup.of_registry e)
      in
      let workload, thpt =
        if e.arbiter then begin
          let load_kreqs = if !quick then 50. else 100. in
          let r =
            Workloads.Memcached.run b
              (memcached_params ~mode:Workloads.Memcached.Arachne_enoki ~load_kreqs)
          in
          ("memcached", r.Workloads.Memcached.achieved_kreqs *. 1000.)
        end
        else ("pipe", pipe_throughput (Workloads.Pipe_bench.run b ~messages ()))
      in
      let wakeup =
        match Metrics.Registry.find_histogram reg "sched_wakeup_latency_ns" with
        | Some h -> h
        | None -> Stats.Histogram.create ()
      in
      let p q = Stats.Histogram.percentile wakeup q in
      Gate.row
        [ ("scheduler", e.name); ("workload", workload) ]
        [
          Gate.int ~check:Exact "wakeups" (Stats.Histogram.count wakeup);
          Gate.int ~check:tail "wakeup_p50_ns" (p 50.0);
          Gate.int ~check:tail "wakeup_p99_ns" (p 99.0);
          Gate.int ~check:tail "wakeup_p999_ns" (p 99.9);
          Gate.float ~check:throughput "throughput_per_s" thpt;
          Gate.int ~check:Exact "crossings" (Profile.crossings prof);
        ])

(* ---------- speed: simulator-throughput suite ----------

   `speed` measures the simulator itself, not the schedulers: host ns per
   simulated event and allocated bytes per event.  Two kinds of rows:

   - machine rows: the full machine running pipe-bench per scheduler
     (best-of-N wall clock; bytes and event counts are deterministic);
   - application rows: memcached and rocksdb, on CFS and on WFQ (one
     run each; bytes and event counts are deterministic);
   - core rows: the bare event loop at fixed queue depth, the default
     slot queue (int slots in a [Ds.Pid_heap]) vs the boxed reference
     heap.  Both are O(log n); the slot queue must allocate nothing at
     any depth.

   The built-in CFS row's ns/event is a wall ratchet: the seed sat at
   ~510 ns/event; the SoA task table and int-encoded events brought it to
   ~220 ns, and the 250 ns ceiling keeps a hot-path slow path from
   creeping back in. *)

let cfs_ns_ceiling = 250.

(* Schedulable tokens and task actions are immediate ints, so neither a
   registry scheduler's hooks nor a pipe step allocate per event: every
   speed row reads ~0.02-0.21 B/event (the machine's own residue, as CFS
   shows), traced or not, and the obs rows with metrics ~0.36.  An absolute ceiling under the Rel drift check, on
   the speed rows and every obs machine row, means regenerating a baseline
   cannot let a token, a hot path, tracing it or profiling it start boxing
   again. *)
let token_bytes_ceiling = 4.

let bytes_check = Gate.Both (bytes, Ceiling token_bytes_ceiling)

(* the default event queue allocates nothing in steady state, at any
   depth (the slack covers the measurement's own few words) *)
let core_bytes_ceiling = 0.01

(* With its key and tie columns typed [int array], the slot queue's sift
   compares ints inline and runs ~2x the boxed reference heap at depth 64
   (~2.0-2.3 at --quick); left polymorphic, every comparison calls the
   generic compare and the ratio falls to ~1.05.  The floor sits between
   the two, so an untyped comparison cannot slip back in. *)
let core_speedup_floor_depth = 64

let core_speedup_floor = 1.5

(* One pipe-bench measurement, shared by the speed and obs suites:
   ((events, best wall seconds, bytes per event), the last run's undrained
   tracer when [tracer] is set).  An untimed warm-up comes first: the first
   run through a scheduler pays first-touch costs (code paging, heap
   growth) that would pollute a gated reading.  Events and bytes are
   identical across runs, so only the wall clock is best-of-[runs]. *)
let pipe_cell ?(tracer = false) ?(metrics = false) ?(profile = false) ~runs kind =
  let messages = if !quick then 10_000 else 50_000 in
  let build () =
    let nr_cpus = Kernsim.Topology.nr_cpus one_socket in
    let tracer = if tracer then Some (Trace.Tracer.create ~nr_cpus ()) else None in
    let registry = if metrics then Some (Metrics.Registry.create ()) else None in
    let profile = if profile then Some (Profile.create ()) else None in
    (Workloads.Setup.build ?tracer ?registry ?profile ~topology:one_socket kind, tracer)
  in
  ignore (Workloads.Pipe_bench.run (fst (build ())) ~messages:(messages / 4) ());
  let bytes = ref 0. and events = ref 0 and kept = ref None in
  let wall =
    best_of runs (fun () ->
        let b, tracer = build () in
        let a0 = Profile.allocated_bytes () in
        let (), wall = timed (fun () -> ignore (Workloads.Pipe_bench.run b ~messages ())) in
        bytes := Profile.allocated_bytes () -. a0;
        events := M.events_dispatched b.Workloads.Setup.machine;
        kept := tracer;
        wall)
  in
  ((!events, wall, !bytes /. float_of_int (max 1 !events)), !kept)

(* Steady-state event loop at fixed queue depth: [depth] self-rescheduling
   events, each firing re-arms itself one horizon ahead, so the queue
   holds exactly [depth] events throughout.  A functor over the queue
   would call it indirectly, so the reference copy below is written out:
   both time direct calls. *)
let per_event run dispatched =
  let a0 = Profile.allocated_bytes () in
  let (), wall = timed run in
  let bytes = Profile.allocated_bytes () -. a0 in
  let n = float_of_int (dispatched ()) in
  (wall *. 1e9 /. n, bytes /. n)

let speed_core_cycle ~depth ~cycles =
  let module S = Kernsim.Sim in
  let sim = S.create () in
  let remaining = ref cycles in
  let rec fire () =
    if !remaining > 0 then begin
      decr remaining;
      S.after sim ~delay:(depth * 100) fire
    end
  in
  for i = 1 to depth do
    S.at sim ~time:(i * 100) fire
  done;
  per_event (fun () -> S.run sim) (fun () -> S.dispatched sim)

let reference_core_cycle ~depth ~cycles =
  let module S = Reference.Sim in
  let sim = S.create () in
  let remaining = ref cycles in
  let rec fire () =
    if !remaining > 0 then begin
      decr remaining;
      S.after sim ~delay:(depth * 100) fire
    end
  in
  for i = 1 to depth do
    S.at sim ~time:(i * 100) fire
  done;
  per_event (fun () -> S.run sim) (fun () -> S.dispatched sim)

let speed_core_depths = [ 1; 64; 512; 4096; 32768 ]

(* The application workloads at --quick load on the 8-cpu box, on CFS and
   on WFQ, measured around the driver's [run].  With requests two ints on
   one queue and every state an int ([Workloads.Open_loop]), memcached
   reads 1.9 B/event and rocksdb 4.2; what is left is the machine's sleep
   timer, ~80 B per [T.sleep], which the load generators take once a
   batch.  The ceiling sits ~12% over the rocksdb reading, so
   a three-word record per request (~+4 B/event at rocksdb's 5.6 events a
   request) fails it. *)
let app_bytes_ceiling = 5.

let app_rows () =
  let wfq = Workloads.Setup.Enoki_sched (module Schedulers.Wfq) in
  let memcached b =
    ignore
      (Workloads.Memcached.run b
         (memcached_params ~mode:Workloads.Memcached.Cfs
            ~load_kreqs:(if !quick then 50. else 100.)))
  in
  let rocksdb b =
    ignore
      (Workloads.Rocksdb.run b
         (rocksdb_params ~load_kreqs:(if !quick then 20. else 50.) ~with_batch:false))
  in
  List.map
    (fun (workload, run, sched, kind) ->
      let b = Workloads.Setup.build ~topology:one_socket kind in
      let a0 = Profile.allocated_bytes () in
      let (), wall = timed (fun () -> run b) in
      let bytes = Profile.allocated_bytes () -. a0 in
      let events = M.events_dispatched b.Workloads.Setup.machine in
      let per x = x /. float_of_int (max 1 events) in
      Gate.row
        [ ("workload", workload); ("scheduler", sched) ]
        [
          Gate.int ~check:Exact "events" events;
          Gate.float "ns_per_event" (per (wall *. 1e9));
          Gate.float ~check:(Ceiling app_bytes_ceiling) "bytes_per_event" (per bytes);
        ])
    [
      ("memcached", memcached, "cfs", Workloads.Setup.Cfs);
      ("memcached", memcached, "wfq", wfq);
      ("rocksdb", rocksdb, "cfs", Workloads.Setup.Cfs);
      ("rocksdb", rocksdb, "wfq", wfq);
    ]

let speed_rows () =
  (* sequential: machine rows are wall-clock measurements too, and
     competing domains would perturb them *)
  let ns_per_event (events, wall, _) = wall *. 1e9 /. float_of_int (max 1 events) in
  let machine =
    List.map
      (fun (e : Schedulers.Registry.entry) ->
        let kind = Workloads.Setup.of_registry e in
        (* best-of-5 even in quick mode: a small sample is too noisy to
           hold the CFS ratchet *)
        let cell, _ = pipe_cell ~runs:5 kind in
        let events, _, bpe = cell in
        let ns_check : Gate.check =
          if e.name = "cfs" then
            Wall_ratchet
              {
                limit = cfs_ns_ceiling;
                better = Lower;
                remeasure = (fun () -> ns_per_event (fst (pipe_cell ~runs:5 kind)));
              }
          else Info
        in
        Gate.row [ ("scheduler", e.name) ]
          [
            Gate.int ~check:Exact "events" events;
            Gate.float ~check:ns_check "ns_per_event" (ns_per_event cell);
            Gate.float ~check:bytes_check "bytes_per_event" bpe;
          ])
      (List.filter (fun (e : Schedulers.Registry.entry) -> not e.arbiter) Schedulers.Registry.all)
  in
  let cycles = if !quick then 200_000 else 1_000_000 in
  (* interleaved pairs, best of each, so transient host noise hits both
     queues alike *)
  let measure depth =
    let best = ref (infinity, 0., infinity, 0.) in
    for _ = 1 to if !quick then 1 else 3 do
      let p_ns, p_b = speed_core_cycle ~depth ~cycles in
      let h_ns, h_b = reference_core_cycle ~depth ~cycles in
      let bp, _, bh, _ = !best in
      best := (Float.min bp p_ns, p_b, Float.min bh h_ns, h_b)
    done;
    !best
  in
  let core =
    List.map
      (fun depth ->
        let p_ns, p_b, h_ns, h_b = measure depth in
        let speedup_check : Gate.check =
          if depth = core_speedup_floor_depth then
            Wall_ratchet
              {
                limit = core_speedup_floor;
                better = Higher;
                remeasure =
                  (fun () ->
                    let p_ns, _, h_ns, _ = measure depth in
                    h_ns /. p_ns);
              }
          else Info
        in
        Gate.row
          [ ("depth", string_of_int depth) ]
          [
            Gate.float "pid_heap_ns_per_event" p_ns;
            Gate.float "heap_ns_per_event" h_ns;
            Gate.float ~check:(Ceiling core_bytes_ceiling) "pid_heap_bytes_per_event" p_b;
            Gate.float "heap_bytes_per_event" h_b;
            Gate.float ~check:speedup_check "speedup" (h_ns /. p_ns);
          ])
      speed_core_depths
  in
  machine @ app_rows () @ core

(* ---------- dsq: the DSQ scheduler family vs built-in CFS ----------

   The dual-queue O(1) priority scheduler that scx-prio-dq reproduces
   claims 65% lower dispatch latency and 33% fewer context switches than
   CFS.  `dsq` runs built-in CFS and the DSQ family (scx-simple, scx-rr,
   scx-prio-dq) over pipe/schbench/rocksdb/memcached: per row the kernel
   wakeup-to-dispatch latency (the CFS-comparable dispatch-latency
   measure), the DSQ-internal enqueue-to-consume wait, context switches,
   throughput, and the deltas against the CFS row of the same workload. *)

let dsq_workloads () : (string * (Workloads.Setup.built -> float)) list =
  let pipe b =
    pipe_throughput (Workloads.Pipe_bench.run b ~messages:(if !quick then 5_000 else 20_000) ())
  in
  let schbench b =
    let duration = Kernsim.Time.ms (if !quick then 400 else 1500) in
    let params =
      { (schbench_params ()) with Workloads.Schbench.warmup = Kernsim.Time.ms 200; duration }
    in
    let r = Workloads.Schbench.run b params in
    float_of_int r.Workloads.Schbench.samples /. (float_of_int duration /. 1e9)
  in
  let rocksdb b =
    let load_kreqs = if !quick then 20. else 50. in
    let r = Workloads.Rocksdb.run b (rocksdb_params ~load_kreqs ~with_batch:false) in
    r.Workloads.Rocksdb.achieved_kreqs *. 1000.
  in
  let memcached b =
    (* stock-memcached server shape (a blocking thread pool under the
       scheduler under test), so CFS and the DSQ family run identical
       request streams *)
    let load_kreqs = if !quick then 50. else 100. in
    let r =
      Workloads.Memcached.run b (memcached_params ~mode:Workloads.Memcached.Cfs ~load_kreqs)
    in
    r.Workloads.Memcached.achieved_kreqs *. 1000.
  in
  [ ("pipe", pipe); ("schbench", schbench); ("rocksdb", rocksdb); ("memcached", memcached) ]

let dsq_rows () =
  let cells =
    List.concat_map
      (fun (e : Schedulers.Registry.entry) -> List.map (fun w -> (e, w)) (dsq_workloads ()))
      (List.filter
         (fun (e : Schedulers.Registry.entry) ->
           e.name = "cfs" || List.mem e.name Schedulers.Registry.dsq_names)
         Schedulers.Registry.all)
  in
  let results =
    parallel_map cells ~f:(fun ((e : Schedulers.Registry.entry), (wname, workload)) ->
        let reg = Metrics.Registry.create () in
        let b =
          Workloads.Setup.build ~registry:reg ~topology:one_socket (Workloads.Setup.of_registry e)
        in
        let thpt = workload b in
        let mets = M.metrics b.Workloads.Setup.machine in
        let wakeup = Kernsim.Accounting.wakeup_latency mets in
        let dsq_wait = Metrics.Registry.find_histogram reg "dsq_dispatch_latency_ns" in
        let p h q = Stats.Histogram.percentile h q in
        ( (e.name, wname),
          [
            Gate.int ~check:tail "wakeup_p50_ns" (p wakeup 50.0);
            Gate.int ~check:tail "wakeup_p99_ns" (p wakeup 99.0);
            Gate.int ~check:tail "wakeup_p999_ns" (p wakeup 99.9);
          ]
          @ Option.to_list
              (Option.map (fun h -> Gate.int ~check:tail "dsq_wait_p99_ns" (p h 99.0)) dsq_wait)
          @ [
              Gate.int ~check:Exact "context_switches" (Kernsim.Accounting.context_switches mets);
              Gate.float ~check:throughput "throughput_per_s" thpt;
            ] ))
  in
  (* deltas against the CFS row of the same workload, in percent
     (negative = better than CFS) *)
  let value name ms = (List.find (fun (m : Gate.metric) -> m.name = name) ms).value in
  List.map
    (fun ((sched, wname), ms) ->
      let cfs = List.assoc ("cfs", wname) results in
      let delta name =
        let c = value name cfs in
        if sched = "cfs" || c <= 0. then []
        else [ Gate.float (name ^ "_vs_cfs_pct") (100. *. ((value name ms /. c) -. 1.)) ]
      in
      Gate.row [ ("scheduler", sched); ("workload", wname) ]
        (ms @ delta "wakeup_p99_ns" @ delta "context_switches"))
    results

(* ---------- §5.8: record and replay ----------

   Two identical WFQ pipe runs — no recording, and the record log streamed
   into a file — measured like the speed suite: simulated elapsed (the
   record_msg cost model), host wall clock, and allocated bytes.  The
   machine is deterministic, so the allocation delta over the unrecorded
   run divided by the recorded event count is the record tap's own cost
   per event.  The log then replays, validating end to end. *)

type rr_mode = {
  rr_name : string;
  rr_elapsed : int; (* simulated ns *)
  rr_wall_s : float;
  rr_alloc : float; (* GC bytes allocated during run+flush *)
  rr_events : int; (* machine events dispatched *)
  rr_recorded : int; (* record-log events (0 when not recording) *)
  rr_dropped : int;
  rr_wire_bytes : int; (* encoded log size *)
}

let recordreplay () =
  Report.section "Record and replay overhead (5.8)";
  let messages = if !quick then 5_000 else 20_000 in
  let run_one rr_name record ~flush ~stats =
    let b =
      build ?record ~topology:one_socket (Workloads.Setup.Enoki_sched (module Schedulers.Wfq))
    in
    let a0 = Profile.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    let r = Workloads.Pipe_bench.run b ~messages () in
    flush ();
    let rr_alloc = Profile.allocated_bytes () -. a0 in
    let rr_wall_s = Unix.gettimeofday () -. t0 in
    let rr_recorded, rr_dropped, rr_wire_bytes = stats () in
    {
      rr_name;
      rr_elapsed = r.Workloads.Pipe_bench.elapsed;
      rr_wall_s;
      rr_alloc;
      rr_events = M.events_dispatched b.Workloads.Setup.machine;
      rr_recorded;
      rr_dropped;
      rr_wire_bytes;
    }
  in
  let none = run_one "none" None ~flush:(fun () -> ()) ~stats:(fun () -> (0, 0, 0)) in
  let path = Filename.temp_file "enoki-rr" ".rec" in
  let r = Enoki.Record.create_file ~path () in
  let binary =
    run_one "binary (file)" (Some r)
      ~flush:(fun () -> Enoki.Record.close r)
      ~stats:(fun () ->
        (Enoki.Record.length r, Enoki.Record.dropped r, (Unix.stat path).Unix.st_size))
  in
  let log = Enoki.Record.load_file ~path in
  Sys.remove path;
  let slowdown m = float_of_int m.rr_elapsed /. float_of_int (max 1 none.rr_elapsed) in
  let alloc_per_event m = m.rr_alloc /. float_of_int (max 1 m.rr_events) in
  (* record-attributable allocation: delta over the unrecorded run, per
     recorded event (the machine's own work cancels out — same event
     stream in both runs) *)
  let rec_alloc m = (m.rr_alloc -. none.rr_alloc) /. float_of_int (max 1 m.rr_recorded) in
  let wire_per_event m = float_of_int m.rr_wire_bytes /. float_of_int (max 1 m.rr_recorded) in
  (* replay the log end to end *)
  let report =
    Enoki.Replay.run ~allow_drops:(binary.rr_dropped > 0) (module Schedulers.Wfq) ~log
  in
  let mode_row m =
    Gate.row
      [ ("mode", m.rr_name) ]
      ([
         Gate.int "sim_elapsed_ns" m.rr_elapsed;
         Gate.float "slowdown" (slowdown m);
         Gate.float "wall_s" m.rr_wall_s;
         Gate.float "alloc_bytes_per_event" (alloc_per_event m);
         Gate.int "machine_events" m.rr_events;
         Gate.int "recorded_events" m.rr_recorded;
         Gate.int "dropped" m.rr_dropped;
         Gate.int "wire_bytes" m.rr_wire_bytes;
       ]
      @
      if m == none then []
      else
        [
          Gate.float "record_alloc_bytes_per_event" (rec_alloc m);
          Gate.float "wire_bytes_per_event" (wire_per_event m);
        ])
  in
  let rows =
    List.map mode_row [ none; binary ]
    @ [
        Gate.row
          [ ("replay", "binary log") ]
          [
            Gate.int "total_calls" report.Enoki.Replay.total_calls;
            Gate.float "wall_s" report.Enoki.Replay.wall_seconds;
            Gate.int "threads" report.Enoki.Replay.threads;
            Gate.int "mismatches" (List.length report.Enoki.Replay.mismatches);
          ];
      ]
  in
  Gate.print rows;
  Report.note "paper: record costs ~7.5x in service time on real hardware (replay of 1M";
  Report.note "messages ~180 s); here the record_msg cost model drives the simulated slowdown.";
  Printf.printf "replay validation: %s\n"
    (match report.Enoki.Replay.mismatches with
    | [] -> "all replies matched"
    | l -> Printf.sprintf "%d MISMATCHES" (List.length l));
  write_snapshot (suite_id "recordreplay") rows

(* ---------- fleet: the cluster tier ----------

   Drives lib/cluster end to end: a steady-state heterogeneous fleet under
   the three-tenant antagonist mix (per-tenant tail latency), a
   load-balancer policy sweep, §5.7 rolling live upgrades under peak vs
   idle load (pause + blackout-window tail attribution), a chaos drill
   (victim panic -> drain -> failover -> re-admit), and, under -j N, the
   steady fleet on a domain pool.  The whole fleet is bit-for-bit
   reproducible from the root seed. *)

let fleet_seed () = Option.value !seed ~default:1

let fleet_entries names =
  List.map
    (fun n ->
      match Schedulers.Registry.find n with
      | Some e -> e
      | None -> failwith ("fleet: unknown scheduler " ^ n))
    names

let fleet_mix ?(scale = 1.0) () =
  Cluster.Traffic.standard_mix
    ~connections:(if !quick then 128 else 256)
    ~load_kreqs:(scale *. if !quick then 80. else 240.)
    ()

let fleet_duration () = Kernsim.Time.ms (if !quick then 400 else 2000)

let fleet_warmup = Kernsim.Time.ms 100

(* steady state: 8 heterogeneous hosts, least-outstanding *)
let fleet_steady_scheds = [ "wfq"; "shinjuku"; "cfs"; "scx-simple" ]

let fleet_steady_create ?pool () =
  let hosts = fleet_entries (List.init 8 (fun i -> List.nth fleet_steady_scheds (i mod 4))) in
  Cluster.Fleet.create ?pool ~warmup:fleet_warmup ~seed:(fleet_seed ()) ~hosts
    ~tenants:(fleet_mix ()) ()

let fleet_steady ?pool () =
  let f = fleet_steady_create ?pool () in
  Cluster.Fleet.run f ~until:(fleet_duration ());
  f

(* Digests every deterministic output the fleet exposes; identical for
   every -j is the byte-identity contract.  48 bits of it, so the value
   is exact in a snapshot's float column. *)
let fleet_fingerprint f =
  let hex =
    Digest.to_hex
      (Digest.string
         (Marshal.to_string
            ( Cluster.Fleet.tenant_stats f,
              Cluster.Fleet.host_stats f,
              Cluster.Fleet.clock f,
              Cluster.Fleet.events_dispatched f,
              Metrics.Export.prometheus (Cluster.Fleet.registry f) )
            []))
  in
  float_of_int (int_of_string ("0x" ^ String.sub hex 0 12))

(* The steady fleet sequential vs on a j-domain pool, and the host's
   parallel capacity for the same work: j independent sequential fleets at
   once, one per domain (spawned here, not the pool's, so a pool that
   fails to run in parallel cannot lower it), against one alone.  Five
   rounds of the three runs back to back; each ratio is the median of its
   per-round readings, so host load that drifts between rounds hits both
   sides of a ratio alike: (speedup, capacity, pooled fingerprint).
   Capacity reads ~j on an idle j-core host and less where the host shares
   its cores (1.0-1.9 on a loaded 2-vCPU VM). *)
let fleet_pooled j =
  let pool = Ds.Domain_pool.create ~domains:j () in
  let at_once () =
    let others = List.init (j - 1) (fun _ -> Domain.spawn (fun () -> ignore (fleet_steady ()))) in
    ignore (fleet_steady ());
    List.iter Domain.join others
  in
  let rounds = 5 in
  let speedup = Array.make rounds 0. and capacity = Array.make rounds 0. and fp = ref 0. in
  for r = 0 to rounds - 1 do
    let seq = snd (timed (fun () -> fleet_steady ())) in
    capacity.(r) <- float_of_int j *. seq /. snd (timed at_once);
    let f, par = timed (fun () -> fleet_steady ~pool ()) in
    speedup.(r) <- seq /. par;
    fp := fleet_fingerprint f
  done;
  Ds.Domain_pool.shutdown pool;
  let median a = Array.sort compare a; a.(rounds / 2) in
  (median speedup, median capacity, !fp)

(* The pooled fleet must turn 15% of each extra core the host delivers
   into speedup: 1.15 at -j 2 on an idle two-core host, and
   proportionally less where the host shares its cores.  Below a quarter of an extra core the pool's own overhead
   outweighs what it could win, so the floor is 0 and the row checks
   determinism only, as on a one-core runner. *)
let fleet_speedup_floor ~avail capacity =
  let extra = Float.min capacity avail -. 1.0 in
  if extra < 0.25 then 0.0 else 1.0 +. (0.15 *. extra)

let fleet_lb_cells () =
  parallel_map
    [ Cluster.Lb.Round_robin; Cluster.Lb.Least_outstanding; Cluster.Lb.Weighted;
      Cluster.Lb.Consistent_hash ]
    ~f:(fun policy ->
      let hosts = fleet_entries [ "wfq"; "wfq"; "wfq"; "wfq" ] in
      let weights =
        match policy with Cluster.Lb.Weighted -> Some [| 4; 2; 1; 1 |] | _ -> None
      in
      let f =
        Cluster.Fleet.create ~warmup:fleet_warmup ?weights ~lb:policy ~seed:(fleet_seed ())
          ~hosts
          ~tenants:(fleet_mix ~scale:0.5 ())
          ()
      in
      Cluster.Fleet.run f ~until:(fleet_duration ());
      let hosts = Cluster.Fleet.host_stats f in
      let p99, p999 =
        match Cluster.Fleet.tenant_stats f with
        | w :: _ -> (w.Cluster.Fleet.p99, w.Cluster.Fleet.p999)
        | [] -> (0, 0)
      in
      Gate.row
        [ ("lb", Cluster.Lb.policy_name policy) ]
        ([
           Gate.int ~check:Exact "completed"
             (List.fold_left (fun n (h : Cluster.Fleet.host_stat) -> n + h.completed) 0 hosts);
           Gate.int ~check:tail "web_p99_ns" p99;
           Gate.int ~check:tail "web_p999_ns" p999;
         ]
        @ List.mapi
            (fun i (h : Cluster.Fleet.host_stat) ->
              Gate.int (Printf.sprintf "host%d_completed" i) h.completed)
            hosts))

(* rolling upgrade at 60% of the run, staggered, under peak and idle load *)
let fleet_upgrade_cells () =
  parallel_map
    [ ("peak", 1.0); ("idle", 0.05) ]
    ~f:(fun (label, scale) ->
      let hosts = fleet_entries [ "wfq"; "wfq"; "wfq"; "wfq" ] in
      let d = fleet_duration () in
      let f =
        Cluster.Fleet.create ~warmup:fleet_warmup
          ~upgrade:{ Cluster.Fleet.at = d * 6 / 10; stagger = d / 20 }
          ~seed:(fleet_seed ()) ~hosts ~tenants:(fleet_mix ~scale ()) ()
      in
      Cluster.Fleet.run f ~until:d;
      let ups = Cluster.Fleet.upgrades f and bl = Cluster.Fleet.blackout f in
      let p q = Stats.Histogram.percentile bl q in
      Gate.row
        [ ("upgrade", label) ]
        [
          Gate.int ~check:Exact "hosts_upgraded" (List.length ups);
          Gate.int ~check:Exact "failures" (Cluster.Fleet.upgrade_failures f);
          Gate.int ~check:tail "max_pause_ns" (List.fold_left (fun m (_, p) -> max m p) 0 ups);
          Gate.int ~check:Exact "blackout_reqs" (Stats.Histogram.count bl);
          Gate.int ~check:tail "blackout_p50_ns" (p 50.0);
          Gate.int ~check:tail "blackout_p99_ns" (p 99.0);
          Gate.int ~check:tail "blackout_p999_ns" (p 99.9);
        ])

let fleet_chaos_row () =
  let hosts = fleet_entries [ "wfq"; "wfq"; "wfq"; "wfq" ] in
  let f =
    Cluster.Fleet.create ~warmup:fleet_warmup
      ~chaos:
        {
          Cluster.Fleet.victim = 1;
          after_calls = (if !quick then 3_000 else 20_000);
          recovery = Kernsim.Time.ms 20;
        }
      ~seed:(fleet_seed ()) ~hosts
      ~tenants:(fleet_mix ~scale:0.5 ())
      ()
  in
  Cluster.Fleet.run f ~until:(fleet_duration ());
  let op_at name =
    List.find_map
      (fun (ts, _, op) -> if op = name then Some (Gate.int (name ^ "_at_ns") ts) else None)
      (Cluster.Fleet.oplog f)
  in
  Gate.row
    [ ("chaos", "victim panic") ]
    ([
       Gate.bool ~check:(Floor 1.) "converged" (Cluster.Fleet.converged f);
       Gate.bool ~check:(Floor 1.) "sanitizer_clean" (Cluster.Fleet.sanitizer_ok f);
       Gate.int ~check:Exact "rejected"
         (List.fold_left
            (fun n (s : Cluster.Fleet.tenant_stat) -> n + s.rejected)
            0 (Cluster.Fleet.tenant_stats f));
     ]
    @ List.filter_map op_at [ "drain"; "admit" ])

(* The sequential steady fleet's run (not its build) allocates ~0.12
   B/event at --quick.  Traffic emits requests as ints, hosts keep them
   in int columns and buffer effects packed, the worker's actions are
   immediate ints, and the epoch barrier reuses what [Fleet.create]
   built, so what is left is the traffic engine's and the machines' rare
   growth.  Boxing the worker's action again would add ~3.3 and cross
   the ceiling, so regenerating the baseline cannot let the front
   end, the effect buffer, an action or a module start boxing again
   (boxed requests read ~75). *)
let fleet_bytes_ceiling = 3.

let fleet_rows () =
  let (steady, run_bytes), wall =
    timed (fun () ->
        let f = fleet_steady_create () in
        let a0 = Profile.allocated_bytes () in
        Cluster.Fleet.run f ~until:(fleet_duration ());
        (f, Profile.allocated_bytes () -. a0))
  in
  let events = Cluster.Fleet.events_dispatched steady in
  let tr = Cluster.Fleet.traffic steady in
  let tenants =
    List.map
      (fun (s : Cluster.Fleet.tenant_stat) ->
        Gate.row
          [ ("tenant", s.tenant) ]
          [
            Gate.int ~check:Exact "completed" s.completed;
            Gate.int ~check:Exact "dropped" s.dropped;
            Gate.int ~check:Exact "rejected" s.rejected;
            Gate.int ~check:tail "p50_ns" s.p50;
            Gate.int ~check:tail "p99_ns" s.p99;
            Gate.int ~check:tail "p999_ns" s.p999;
          ])
      (Cluster.Fleet.tenant_stats steady)
  in
  let seq_fp = fleet_fingerprint steady in
  let sequential =
    Gate.row
      [ ("jobs", "1") ]
      [
        Gate.int ~check:Exact "events" events;
        Gate.int ~check:Exact "flows" (Cluster.Traffic.flows_completed tr);
        Gate.int ~check:Exact "live_flows" (Cluster.Traffic.live_flows tr);
        Gate.float ~check:Exact "fingerprint" seq_fp;
        Gate.float "wall_s" wall;
        Gate.float
          ~check:(Both (bytes, Ceiling fleet_bytes_ceiling))
          "bytes_per_event"
          (run_bytes /. float_of_int (max 1 events));
      ]
  in
  (* under -j N the pooled fleet must match the sequential one and clear
     a speedup floor read against the parallel capacity measured beside
     it: on a one-core runner it is determinism only *)
  let j = effective_jobs () in
  let pooled =
    if j <= 1 then []
    else begin
      let speedup, capacity, fp = fleet_pooled j in
      let floor = fleet_speedup_floor ~avail:(float_of_int (min j (Domain.recommended_domain_count ()))) in
      let margin (speedup, capacity, _) = speedup -. floor capacity in
      [
        Gate.row
          [ ("jobs", string_of_int j) ]
          [
            Gate.bool ~check:(Ceiling 0.) "diverged" (fp <> seq_fp);
            Gate.float "speedup" speedup;
            Gate.float "capacity" capacity;
            Gate.float "speedup_floor" (floor capacity);
            Gate.float "speedup_margin"
              (margin (speedup, capacity, fp))
              ~check:
                (Wall_ratchet
                   { limit = 0.0; better = Higher; remeasure = (fun () -> margin (fleet_pooled j)) });
          ];
      ]
    end
  in
  tenants @ fleet_lb_cells () @ fleet_upgrade_cells () @ [ fleet_chaos_row (); sequential ] @ pooled

(* ---------- obs: observability-overhead suite ----------

   How much does watching cost?  `obs` prices each observability layer in
   host ns/event and allocated bytes/event, at two scales:

   - machine rows: pipe-bench per scheduler under five configurations —
     no observability, schedtrace tracer, metrics registry, both, and the
     boundary self-profiler (which counts every Enoki-C crossing and reads
     the host clock twice on one in 64, and so has nothing to time on
     CFS); WFQ's profile row also holds the profiler's wall-clock price,
     as a ratio to no observability;
   - fleet rows: the cluster tier with observability off
     ([observe:false], the no-observability baseline), the default
     metrics pipeline, and the full request-anatomy decomposition.

   The hooks must never perturb the simulation, so event counts are
   identical down a scheduler's configs and across the fleet configs
   (same-run invariant rows).  The fast-path budget: the default fleet
   stays within 5% wall clock of the no-observability baseline.  The
   anatomy exemplar timeline is written next to the snapshot, for CI to
   upload when the gate fails. *)

let obs_machine_scheds = [ "wfq"; "cfs" ]

let obs_machine_configs = [ "none"; "tracer"; "metrics"; "both"; "profile" ]

(* What reading a trace out costs once the run is over: drain the tracer
   and render the Chrome JSON, priced per trace event, each half on its own
   so a regression names the half it is in.  All it should allocate is the
   event list and the document itself, written once at its exact size:
   under 200 bytes per event.  The export writes half the document on a
   helper domain, so the bytes are read across every domain: [Gc.quick_stat]
   counts a joined domain's allocation, but the calling domain's only as of
   its last minor collection, so one is forced first.  Nothing else
   allocates meanwhile (the row runs on the main domain; the shared pool,
   if any, is parked).  The reading is close to identical run to run, so it
   is held within 1% of the baseline too: a helper allocating one block per
   event it writes breaches that. *)
let obs_trace_export_row tracer =
  let allocated () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    (s.minor_words +. s.major_words -. s.promoted_words) *. float_of_int (Sys.word_size / 8)
  in
  let a0 = allocated () in
  let evs, drain = timed (fun () -> Trace.Tracer.events tracer) in
  let json_bytes, export = timed (fun () -> String.length (Trace.Export.chrome_json evs)) in
  let n = List.length evs in
  let per_event x = x /. float_of_int (max 1 n) in
  Gate.row
    [ ("trace", "export") ]
    [
      Gate.int ~check:Exact "trace_events" n;
      Gate.int ~check:Exact "json_bytes" json_bytes;
      Gate.float ~check:(Both (Rel (Lower, 0.01), Ceiling 256.)) "bytes_per_trace_event"
        (per_event (allocated () -. a0));
      Gate.float "drain_ns_per_trace_event" (per_event (drain *. 1e9));
      Gate.float "export_ns_per_trace_event" (per_event (export *. 1e9));
    ]

(* This process's resident set in kB ([VmRSS]), or 0 where
   /proc/self/status cannot be read. *)
let rss_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0
  | status ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmRSS"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> Option.value (int_of_string_opt kb) ~default:acc
          | [] -> acc)
        | _ -> acc)
      0
      (String.split_on_char '\n' status)

(* What attaching a tracer costs before it records anything: the resident
   memory an 80-cpu tracer at the default capacity adds.  Its rings are
   reserved, not filled, so they stay off the resident set until written;
   filled, they would be 80 x 65536 slots x 32 B = 168 MB. *)
let obs_trace_reserve_row () =
  Gc.full_major ();
  let before = rss_kb () in
  let tracer = Trace.Tracer.create ~nr_cpus:80 () in
  let after = rss_kb () in
  ignore (Sys.opaque_identity tracer);
  Gate.row
    [ ("trace", "reserve") ]
    [ Gate.float ~check:(Ceiling 8.) "rss_mb" (float_of_int (after - before) /. 1024.) ]

let obs_fleet_configs = [ "baseline"; "metrics"; "anatomy" ]

let obs_fleet_build config =
  Cluster.Fleet.create ~warmup:fleet_warmup ~observe:(config <> "baseline")
    ~anatomy:(config = "anatomy") ~seed:(fleet_seed ())
    ~hosts:(fleet_entries [ "wfq"; "cfs" ])
    ~tenants:(fleet_mix ~scale:0.25 ())
    ()

let obs_fleet_duration () = Kernsim.Time.ms (if !quick then 600 else 1500)

(* Interleaved best-of-3: each round runs baseline, metrics and anatomy
   back to back, so transient host noise lands on all three alike.
   Returns (config, fleet, best wall, bytes) per config; events, bytes and
   completions are deterministic across rounds. *)
let obs_fleet_cells () =
  let best = Array.make (List.length obs_fleet_configs) infinity in
  let kept = Array.make (List.length obs_fleet_configs) None in
  for _ = 1 to 3 do
    List.iteri
      (fun i config ->
        let f = obs_fleet_build config in
        let a0 = Profile.allocated_bytes () in
        let (), wall = timed (fun () -> Cluster.Fleet.run f ~until:(obs_fleet_duration ())) in
        best.(i) <- Float.min best.(i) wall;
        kept.(i) <- Some (f, Profile.allocated_bytes () -. a0))
      obs_fleet_configs
  done;
  List.mapi
    (fun i config ->
      let f, bytes = Option.get kept.(i) in
      (config, f, best.(i), bytes))
    obs_fleet_configs

let obs_fastpath_ratio cells =
  let wall config = List.find_map (fun (c, _, w, _) -> if c = config then Some w else None) cells in
  Option.get (wall "metrics") /. Option.get (wall "baseline")

let obs_fastpath_ceiling = 1.05

let obs_exemplar_path = "obs-exemplars.trace.json"

(* What the boundary profiler costs WFQ's pipe run: the best profiled run
   over the best unprofiled one, the two alternating so host noise lands
   on both alike.  Timing every crossing read ~1.85x; timing one in 64
   reads ~1.1. *)
let obs_profile_ratio () =
  let kind = Workloads.Setup.of_registry (List.hd (fleet_entries [ "wfq" ])) in
  let best = [| infinity; infinity |] in
  for _ = 1 to 5 do
    List.iteri
      (fun i profile ->
        let (_, wall, _), _ = pipe_cell ~profile ~runs:1 kind in
        best.(i) <- Float.min best.(i) wall)
      [ false; true ]
  done;
  best.(1) /. best.(0)

let obs_profile_ceiling = 1.15

let obs_rows () =
  (* first, while the heap holds little a collection could hand back *)
  let reserve = obs_trace_reserve_row () in
  let machine =
    List.concat_map
      (fun sched ->
        let kind = Workloads.Setup.of_registry (List.hd (fleet_entries [ sched ])) in
        List.map
          (fun config ->
            let on c = config = c || config = "both" in
            ( sched,
              config,
              pipe_cell ~tracer:(on "tracer") ~metrics:(on "metrics") ~profile:(config = "profile")
                ~runs:(if !quick then 1 else 3) kind ))
          obs_machine_configs)
      obs_machine_scheds
  in
  let wfq_tracer =
    List.find_map
      (fun (sched, config, (_, tracer)) ->
        if sched = "wfq" && config = "tracer" then tracer else None)
      machine
  in
  let machine = List.map (fun (sched, config, (cell, _)) -> (sched, config, cell)) machine in
  let fleet = obs_fleet_cells () in
  let per_event wall events = wall *. 1e9 /. float_of_int (max 1 events) in
  let spread label events =
    Gate.row
      [ ("invariant", label ^ " events identical") ]
      [
        Gate.int ~check:(Ceiling 0.) "spread"
          (List.fold_left max min_int events - List.fold_left min max_int events);
      ]
  in
  List.map
    (fun (sched, config, (events, wall, bpe)) ->
      Gate.row
        [ ("scheduler", sched); ("config", config) ]
        ([
           Gate.int ~check:Exact "events" events;
           Gate.float "ns_per_event" (per_event wall events);
           Gate.float ~check:bytes_check "bytes_per_event" bpe;
         ]
        @
        if sched = "wfq" && config = "profile" then
          [
            Gate.float "vs_none_wall" (obs_profile_ratio ())
              ~check:
                (Wall_ratchet
                   { limit = obs_profile_ceiling; better = Lower; remeasure = obs_profile_ratio });
          ]
        else []))
    machine
  @ List.map
      (fun (config, f, wall, allocated) ->
        let events = Cluster.Fleet.events_dispatched f in
        Gate.row
          [ ("fleet", config) ]
          ([
             Gate.int ~check:Exact "events" events;
             Gate.int ~check:Exact "completed"
               (List.fold_left
                  (fun acc (s : Cluster.Fleet.tenant_stat) -> acc + s.completed)
                  0 (Cluster.Fleet.tenant_stats f));
             Gate.float "ns_per_event" (per_event wall events);
             Gate.float ~check:bytes "bytes_per_event" (allocated /. float_of_int (max 1 events));
           ]
          @
          match Cluster.Fleet.anatomy f with
          | None -> []
          | Some a ->
            Trace.Anatomy.save_chrome a ~path:obs_exemplar_path;
            [
              Gate.int ~check:(Floor 1.) "anatomy_completions" (Trace.Anatomy.completions a);
              Gate.int ~check:Exact "anatomy_max_sum_error" (Trace.Anatomy.max_sum_error a);
            ]))
      fleet
  @ List.map obs_trace_export_row (Option.to_list wfq_tracer)
  @ [ reserve ]
  @ List.map
      (fun sched ->
        spread ("machine/" ^ sched)
          (List.filter_map
             (fun (s, _, (events, _, _)) -> if s = sched then Some events else None)
             machine))
      obs_machine_scheds
  @ [
      spread "fleet" (List.map (fun (_, f, _, _) -> Cluster.Fleet.events_dispatched f) fleet);
      Gate.row
        [ ("invariant", "fleet fast path") ]
        [
          Gate.float "metrics_vs_baseline_wall" (obs_fastpath_ratio fleet)
            ~check:
              (Wall_ratchet
                 {
                   limit = obs_fastpath_ceiling;
                   better = Lower;
                   remeasure = (fun () -> obs_fastpath_ratio (obs_fleet_cells ()));
                 });
        ];
    ]

(* ---------- suites and the gate ---------- *)

type suite = { name : string; title : string; rows : unit -> Gate.row list; notes : string list }

let suites =
  [
    {
      name = "perf";
      title = "Perf suite: every registry scheduler, metrics and profiler attached";
      rows = perf_rows;
      notes =
        [ "wakeup percentiles and throughput are simulated, so deterministic; crossings";
          "counts Enoki-C boundary dispatches (0 for natively built-in schedulers)." ];
    };
    {
      name = "speed";
      title = "Speed suite: simulator throughput";
      rows = speed_rows;
      notes =
        [ "scheduler rows: full machine + scheduler running pipe-bench; ns/event is host";
          "wall clock (ratcheted on cfs), events and bytes/event are deterministic.";
          "workload rows: memcached and rocksdb at the dsq suite's load, one run each.";
          "depth rows: bare event loop at steady queue depth, the default slot queue";
          "(pid_heap) vs the boxed reference heap; both grow with depth (log n sift)." ];
    };
    {
      name = "dsq";
      title = "DSQ suite: dispatch-queue schedulers vs built-in CFS";
      rows = dsq_rows;
      notes =
        [ "dual-queue paper claims vs CFS: 65% lower dispatch latency and 33% fewer";
          "context switches -- read the scx-prio-dq rows' *_vs_cfs_pct columns against";
          "them.  dsq_wait is the DSQ-internal enqueue-to-consume histogram." ];
    };
    {
      name = "fleet";
      title = "Fleet suite: cluster tier under multi-tenant open-loop load";
      rows = fleet_rows;
      notes =
        [ "blackout: completions landing inside a host's upgrade pause window (pause + one";
          "epoch); the peak-vs-idle pair is the fleet-scale read of the paper's 5.7.";
          "jobs rows: the steady fleet's fingerprint digests tenant/host stats, clock, events";
          "and the metrics export; under -j N it must not diverge from the sequential run." ];
    };
    {
      name = "obs";
      title = "Observability suite: what watching costs";
      rows = obs_rows;
      notes =
        [ "ns_per_event is host wall clock; the hooks never perturb the simulation, so";
          "events match down a scheduler's configs.  fleet: wfq+cfs hosts with observability";
          "off (baseline), the default metrics pipeline, and full request anatomy." ];
    };
  ]

let run_suite ~gate s =
  let id = suite_id s.name in
  Report.section (Printf.sprintf "%s (%s)" s.title id);
  let rows = s.rows () in
  (if not gate then Gate.print rows
   else
     let path = Printf.sprintf "bench/baselines/BENCH_%s.json" id in
     match Gate.load ~path with
     | Ok base -> judge ~base ~suite:id rows
     | Error e -> judge ~error:e ~suite:id rows);
  List.iter Report.note s.notes;
  write_snapshot id rows

(* ---------- driver ---------- *)

let experiments =
  [
    ("table3", table3);
    ("table4", table4);
    ("table5", table5);
    ("table6", table6);
    ("fig2a", fig2a);
    ("fig2bc", fig2bc);
    ("fig3", fig3);
    ("upgrade", upgrade);
    ("recordreplay", recordreplay);
    ("appendix", appendix);
    ("ablation", ablation);
    ("loc", loc);
  ]
  @ List.map (fun s -> (s.name, fun () -> run_suite ~gate:false s)) suites

let usage =
  "usage: main.exe [--quick] [--seed=N] [-j [N] | -jN | --jobs=N] [--sanitize] [--trace=PATH]\n\
  \                [--trace-format=chrome|ftrace] [EXPERIMENT... | gate [SUITE...]]"

let () =
  let bad fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "%s\n%s\n" msg usage;
        exit 2)
      fmt
  in
  let count s = match int_of_string_opt s with Some n when n >= 1 -> n | _ -> bad "bad job count %s" s in
  let rec parse names = function
    | [] -> List.rev names
    | "--sanitize" :: rest ->
      sanitize := true;
      parse names rest
    | "--quick" :: rest ->
      quick := true;
      parse names rest
    (* a bare -j sizes the pool to the host; "-j 4" refines it, matching
       make/dune convention *)
    | "-j" :: n :: rest when int_of_string_opt n <> None ->
      jobs := count n;
      parse names rest
    | "-j" :: rest ->
      jobs := Domain.recommended_domain_count ();
      parse names rest
    | arg :: rest when String.starts_with ~prefix:"-j" arg ->
      jobs := count (String.sub arg 2 (String.length arg - 2));
      parse names rest
    | arg :: rest when String.starts_with ~prefix:"--" arg && String.contains arg '=' ->
      let i = String.index arg '=' in
      let v = String.sub arg (i + 1) (String.length arg - i - 1) in
      (match String.sub arg 0 i with
      | "--trace" -> if v = "" then bad "empty trace path" else trace_path := Some v
      | "--trace-format" -> (
        match Trace.Export.format_of_string v with
        | Some f -> trace_format := f
        | None -> bad "unknown trace format %s (chrome|ftrace)" v)
      | "--seed" -> (
        match int_of_string_opt v with Some n -> seed := Some n | None -> bad "bad seed %s" v)
      | "--jobs" -> jobs := count v
      | _ -> bad "unknown flag %s" arg);
      parse names rest
    | arg :: _ when String.starts_with ~prefix:"-" arg -> bad "unknown flag %s" arg
    | name :: rest -> parse (name :: names) rest
  in
  let names = parse [] (List.tl (Array.to_list Sys.argv)) in
  let is_suite n = List.exists (fun s -> s.name = n) suites in
  let requested =
    match names with
    | "gate" :: picked ->
      let chosen = if picked = [] then List.map (fun s -> s.name) suites else picked in
      List.map
        (fun n ->
          match List.find_opt (fun s -> s.name = n) suites with
          | Some s -> ("gate " ^ n, fun () -> run_suite ~gate:true s)
          | None ->
            bad "unknown suite %s; gated suites: %s" n
              (String.concat " " (List.map (fun s -> s.name) suites)))
        chosen
    (* the suites are explicit targets, not part of "run everything" *)
    | [] -> List.filter (fun (n, _) -> not (is_suite n)) experiments
    | names ->
      List.map
        (fun n ->
          match List.assoc_opt n experiments with
          | Some f -> (n, f)
          | None ->
            bad "unknown experiment %s; available: %s, or gate [SUITE...]" n
              (String.concat " " (List.map fst experiments)))
        names
  in
  Printf.printf "workload seed: %s\n"
    (match !seed with
    | Some n -> string_of_int n
    | None -> "per-workload defaults (schbench 42, rocksdb 7, memcached 11, fleet 1)");
  if !jobs > 1 then
    Printf.printf "job pool: %d domains%s\n" (effective_jobs ())
      (if effective_jobs () = 1 then " requested, forced sequential by --trace=" else "");
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (name, f) ->
      let t = Unix.gettimeofday () in
      let a0 = Gc.allocated_bytes () and c0 = Atomic.get cells_allocated in
      let g0 = Gc.quick_stat () in
      f ();
      (* allocation aggregated across the main domain and the pool *)
      let mb =
        (Gc.allocated_bytes () -. a0 +. float_of_int (Atomic.get cells_allocated - c0)) /. 1e6
      in
      let g1 = Gc.quick_stat () in
      Printf.printf "  [%s took %.1fs, %.0f MB allocated, %d minor / %d major gcs]\n%!" name
        (Unix.gettimeofday () -. t)
        mb
        (g1.Gc.minor_collections - g0.Gc.minor_collections)
        (g1.Gc.major_collections - g0.Gc.major_collections))
    requested;
  finish_tracing ();
  Printf.printf "\nall requested experiments done in %.1fs\n" (Unix.gettimeofday () -. t0);
  if !gate_failed then exit 4
