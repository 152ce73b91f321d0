(* Tests for the observability layer: the metrics registry (get-or-create,
   shape checking, per-cpu sharding), the exporters, the sim-time sampler,
   the Enoki-C self-profiler — and the zero-perturbation contract: a run
   with a registry, profiler and armed sampler attached must produce a
   bit-identical scheduling trace to the same run without them. *)

module R = Metrics.Registry
module H = Stats.Histogram

let check = Alcotest.check

let one_socket = Kernsim.Topology.one_socket

(* a counter's value as the exporters read it, -1 when absent *)
let counter_named reg name =
  let v = ref (-1) in
  R.iter reg (fun ~name:n ~help:_ -> function R.Counter_v c when n = name -> v := c | _ -> ());
  !v

(* what [Export.save] writes for [format] *)
let saved ?sampler format reg =
  let path = Filename.temp_file "metrics" ".out" in
  Metrics.Export.save ~path ?sampler format reg;
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  text

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

(* ---------- registry semantics ---------- *)

let test_get_or_create () =
  let reg = R.create ~nr_cpus:4 () in
  let a = R.counter reg ~help:"a counter" "x_total" in
  let b = R.counter reg "x_total" in
  R.incr a ~cpu:0;
  for _ = 1 to 2 do R.incr b ~cpu:0 done;
  check Alcotest.int "handles alias one metric" 3 (counter_named reg "x_total");
  R.gauge_probe reg "g" (fun () -> 1.0);
  R.gauge_probe reg "g" (fun () -> 1.5);
  let gauges = ref [] in
  R.iter reg (fun ~name ~help:_ -> function R.Gauge_v g -> gauges := (name, g) :: !gauges | _ -> ());
  check (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.float 0.0)))
    "a re-registered probe replaces the old one" [ ("g", 1.5) ] !gauges

let test_shape_mismatch () =
  let reg = R.create () in
  ignore (R.counter reg "m");
  expect_invalid "counter as histogram" (fun () -> R.histogram reg "m");
  ignore (R.histogram reg "h");
  expect_invalid "histogram as counter" (fun () -> R.counter reg "h");
  expect_invalid "probe over counter" (fun () -> R.gauge_probe reg "m" (fun () -> 0.))

let test_sharding () =
  let reg = R.create ~nr_cpus:4 () in
  let c = R.counter reg "sharded_total" in
  for cpu = 0 to 3 do
    R.incr c ~cpu
  done;
  (* out-of-range cpus fold onto shard 0 rather than being lost *)
  R.incr c ~cpu:99;
  R.incr c ~cpu:(-1);
  check Alcotest.int "value sums all shards" 6 (counter_named reg "sharded_total");
  let h = R.histogram reg "sharded_ns" in
  for i = 1 to 100 do
    R.observe h ~cpu:(i mod 4) (i * 10)
  done;
  R.observe h ~cpu:42 1_000_000;
  let m = R.merged h in
  check Alcotest.int "merged count sums all shards" 101 (H.count m);
  check Alcotest.int "merged keeps min" 10 (H.min m);
  check Alcotest.int "merged keeps max" 1_000_000 (H.max m)

let test_probe_and_iter () =
  let reg = R.create () in
  let c = R.counter reg "a_total" in
  let live = ref 0.0 in
  R.gauge_probe reg "depth" (fun () -> !live);
  ignore (R.histogram reg "lat_ns");
  for _ = 1 to 7 do R.incr c ~cpu:0 done;
  live := 3.0;
  let seen = ref [] in
  R.iter reg (fun ~name ~help:_ v -> seen := (name, v) :: !seen);
  let seen = List.rev !seen in
  check (Alcotest.list Alcotest.string) "registration order"
    [ "a_total"; "depth"; "lat_ns" ]
    (List.map fst seen);
  (match List.assoc "depth" seen with
  | R.Gauge_v g -> check (Alcotest.float 0.0) "probe runs at read time" 3.0 g
  | _ -> Alcotest.fail "probe should read as a gauge");
  check Alcotest.int "counter read by name" 7 (counter_named reg "a_total");
  check Alcotest.int "absent counter" (-1) (counter_named reg "nope");
  check Alcotest.bool "find_histogram wrong shape" true (R.find_histogram reg "a_total" = None)

(* ---------- histogram merge: bucket-exact, percentile-bounded ---------- *)

(* Merging per-cpu shards must be bucket-identical to recording the same
   stream into one histogram, and the merged percentile must stay within
   the log-linear bucket resolution of the exact (sorted-list) percentile:
   exact <= reported <= exact * 1.05 + 1. *)
let merged_percentile_prop =
  QCheck.Test.make ~count:200 ~name:"merged shards match single histogram and bound exact percentiles"
    QCheck.(pair (int_range 1 8) (list_of_size Gen.(int_range 1 300) (int_range 1 5_000_000)))
    (fun (shards, values) ->
      let reg = R.create ~nr_cpus:shards () in
      let h = R.histogram reg "h" in
      List.iteri (fun i v -> R.observe h ~cpu:(i mod shards) v) values;
      let merged = R.merged h in
      let single = H.create () in
      List.iter (H.record single) values;
      if H.to_buckets merged <> H.to_buckets single then
        QCheck.Test.fail_report "merged buckets differ from single-histogram buckets";
      let sorted = List.sort compare values in
      let n = List.length sorted in
      List.for_all
        (fun p ->
          let rank = Stdlib.max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int n))) in
          let exact = List.nth sorted (rank - 1) in
          let got = H.percentile merged p in
          if got <> H.percentile single p then
            QCheck.Test.fail_reportf "p%.0f: merged %d <> single %d" p got
              (H.percentile single p);
          if not (exact <= got && float_of_int got <= (float_of_int exact *. 1.05) +. 1.) then
            QCheck.Test.fail_reportf "p%.0f: reported %d outside [%d, %d*1.05+1]" p got exact
              exact;
          true)
        [ 50.0; 95.0; 99.0; 99.9 ])

let test_to_buckets () =
  let h = H.create () in
  List.iter (H.record h) [ 1; 1; 3; 500; 500; 500; 123_456 ];
  let buckets = H.to_buckets h in
  check Alcotest.int "counts sum to total" (H.count h)
    (List.fold_left (fun acc (_, c) -> acc + c) 0 buckets);
  let bounds = List.map fst buckets in
  check Alcotest.bool "ascending bounds" true (List.sort compare bounds = bounds);
  check Alcotest.bool "all counts positive" true (List.for_all (fun (_, c) -> c > 0) buckets);
  check Alcotest.bool "max within last bound" true
    (match List.rev bounds with last :: _ -> last >= H.max h | [] -> false)

(* ---------- exporters ---------- *)

let sample_registry () =
  let reg = R.create ~nr_cpus:2 () in
  let c = R.counter reg ~help:"total frobs" "frobs_total" in
  for _ = 1 to 5 do R.incr c ~cpu:0 done;
  R.gauge_probe reg ~help:"queue depth" "depth" (fun () -> 2.0);
  let h = R.histogram reg ~help:"latency" "lat_ns" in
  List.iter (fun v -> R.observe h ~cpu:0 v) [ 10; 100; 1000; 1000 ];
  reg

let test_prometheus () =
  let reg = sample_registry () in
  let out = Metrics.Export.prometheus reg in
  let has needle =
    let nl = String.length needle and ol = String.length out in
    let rec go i = i + nl <= ol && (String.sub out i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "HELP line" true (has "# HELP frobs_total total frobs");
  check Alcotest.bool "counter TYPE" true (has "# TYPE frobs_total counter");
  check Alcotest.bool "counter value" true (has "frobs_total 5");
  check Alcotest.bool "gauge TYPE" true (has "# TYPE depth gauge");
  check Alcotest.bool "histogram TYPE" true (has "# TYPE lat_ns histogram");
  check Alcotest.bool "cumulative buckets" true (has "lat_ns_bucket{le=");
  check Alcotest.bool "+Inf bucket" true (has "le=\"+Inf\"} 4");
  check Alcotest.bool "count series" true (has "lat_ns_count 4")

let test_json_summary_roundtrip () =
  let reg = sample_registry () in
  (* the exporter's output must survive our own parser *)
  match Metrics.Json.parse (saved Metrics.Export.Json_summary reg) with
  | Error e -> Alcotest.failf "summary does not reparse: %s" e
  | Ok j ->
    let member k v = Option.get (Metrics.Json.member k v) in
    let frobs = member "frobs_total" (member "counters" j) in
    check Alcotest.int "counter value" 5 (Option.get (Metrics.Json.to_int frobs));
    check (Alcotest.float 0.0) "gauge value" 2.0
      (Option.get (Metrics.Json.to_float (member "depth" (member "gauges" j))));
    let lat = member "lat_ns" (member "histograms" j) in
    check Alcotest.int "histogram count" 4
      (Option.get (Metrics.Json.to_int (member "count" lat)));
    check Alcotest.bool "p99 present" true (Metrics.Json.member "p99" lat <> None)

let test_json_parse_errors () =
  (match Metrics.Json.parse "{\"a\": [1, 2.5, true, null, \"s\"]}" with
  | Ok (Metrics.Json.Obj [ ("a", Metrics.Json.List l) ]) ->
    check Alcotest.int "list arity" 5 (List.length l)
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  check Alcotest.bool "trailing garbage rejected" true
    (match Metrics.Json.parse "{} x" with Error _ -> true | Ok _ -> false);
  check Alcotest.bool "truncated rejected" true
    (match Metrics.Json.parse "[1," with Error _ -> true | Ok _ -> false)

let test_format_of_path () =
  let fmt = function
    | Metrics.Export.Prometheus -> "prom"
    | Metrics.Export.Csv -> "csv"
    | Metrics.Export.Json_summary -> "json"
  in
  check Alcotest.string "prom" "prom" (fmt (Metrics.Export.format_of_path "m.prom"));
  check Alcotest.string "csv" "csv" (fmt (Metrics.Export.format_of_path "runs/m.csv"));
  check Alcotest.string "json default" "json" (fmt (Metrics.Export.format_of_path "m.json"));
  check Alcotest.string "unknown is json" "json" (fmt (Metrics.Export.format_of_path "metrics"))

(* ---------- sampler ---------- *)

(* Drive the sampler with a toy agenda standing in for the machine's event
   queue: ticks fire every [interval], hooks observe the tick timestamp,
   and snapshots capture counters as they grow. *)
let test_sampler_ticks () =
  let reg = R.create ~nr_cpus:1 () in
  let c = R.counter reg "work_total" in
  let smp = Metrics.Sampler.create ~interval:100 reg in
  let hook_ts = ref [] in
  Metrics.Sampler.on_flush smp (fun ~ts -> hook_ts := ts :: !hook_ts);
  let now = ref 0 in
  let agenda = ref [] in
  let defer ~delay f = agenda := (!now + delay, f) :: !agenda in
  Metrics.Sampler.start smp ~now:(fun () -> !now) ~defer;
  let rec loop () =
    match List.sort (fun (a, _) (b, _) -> compare a b) !agenda with
    | (t, f) :: rest when t <= 500 ->
      agenda := rest;
      now := t;
      R.incr c ~cpu:0;
      f ();
      loop ()
    | _ -> ()
  in
  loop ();
  check Alcotest.int "five ticks in 500ns" 5 (Metrics.Sampler.ticks smp);
  check (Alcotest.list Alcotest.int) "hooks saw every tick ts" [ 100; 200; 300; 400; 500 ]
    (List.rev !hook_ts);
  let samples = Metrics.Sampler.samples smp in
  check (Alcotest.list Alcotest.int) "samples oldest first" [ 100; 200; 300; 400; 500 ]
    (List.map (fun (s : Metrics.Sampler.sample) -> s.ts) samples);
  (* counters are snapshotted live: the k-th tick saw k increments *)
  List.iteri
    (fun i (s : Metrics.Sampler.sample) ->
      check (Alcotest.float 0.0)
        (Printf.sprintf "tick %d counter snapshot" (i + 1))
        (float_of_int (i + 1))
        (List.assoc "work_total" s.values))
    samples;
  (* the csv exporter renders one row per tick over these snapshots *)
  let csv = saved ~sampler:smp Metrics.Export.Csv reg in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check Alcotest.int "csv header + one row per tick" 6 (List.length lines);
  (match lines with
  | header :: _ ->
    check Alcotest.bool "ts column first" true
      (String.length header >= 5 && String.sub header 0 5 = "ts_ns")
  | [] -> Alcotest.fail "empty csv")

(* ---------- label parity across exporters ---------- *)

(* Registry.split must invert Registry.labeled for any label set, including
   values that embed the escape-worthy characters. *)
let prop_labeled_split_roundtrip labels =
  (* keys must be identifier-ish (labeled does not escape keys); values are
     arbitrary *)
  let labels =
    List.mapi (fun i (k, v) -> (Printf.sprintf "k%d_%s" i (String.map (fun c ->
        if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') then c else 'x') k), v))
      labels
  in
  let name = R.labeled "fleet_latency_ns" labels in
  let base, parsed = R.Private.split name in
  if base <> "fleet_latency_ns" then
    QCheck.Test.fail_reportf "base %S from %S" base name
  else if parsed <> labels then
    QCheck.Test.fail_reportf "labels did not roundtrip through %S" name
  else true

let test_split_escapes () =
  let labels = [ ("tenant", "we\"b,1"); ("host", "a\\b\nc") ] in
  let name = R.labeled "m" labels in
  check
    (Alcotest.pair Alcotest.string (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string)))
    "escaped values roundtrip" ("m", labels) (R.Private.split name);
  check
    (Alcotest.pair Alcotest.string (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string)))
    "unlabeled passes through" ("plain", []) (R.Private.split "plain")

(* csv_split must invert csv_cell for any cell list — this is what keeps a
   labelled series name (embedded commas, quotes) one CSV column. *)
let prop_csv_cell_roundtrip cells =
  (* an empty line is one empty cell in CSV, so [] cannot roundtrip *)
  let cells = if cells = [] then [ "" ] else cells in
  let line = String.concat "," (List.map Metrics.Export.Private.csv_cell cells) in
  let back = Metrics.Export.Private.csv_split line in
  if back <> cells then
    QCheck.Test.fail_reportf "cells did not roundtrip through %S" line
  else true

(* End to end: a registry with labelled series, sampled and exported to
   CSV, must come back with every labelled column intact — header cells
   parse with csv_split, then split back into (base, labels). *)
let test_labeled_csv_roundtrip () =
  let reg = R.create ~nr_cpus:1 () in
  let labels = [ ("tenant", "we\"b"); ("sched", "wfq,2") ] in
  let c = R.counter reg (R.labeled "fleet_completed_total" labels) in
  for _ = 1 to 3 do R.incr c ~cpu:0 done;
  let smp = Metrics.Sampler.create ~interval:10 reg in
  Metrics.Sampler.flush smp ~ts:10;
  let csv = saved ~sampler:smp Metrics.Export.Csv reg in
  match String.split_on_char '\n' (String.trim csv) with
  | header :: _ :: _ ->
    (match Metrics.Export.Private.csv_split header with
    | [ ts; col ] ->
      check Alcotest.string "ts column" "ts_ns" ts;
      check
        (Alcotest.pair Alcotest.string
           (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string)))
        "labelled column survives csv" ("fleet_completed_total", labels) (R.Private.split col)
    | cells -> Alcotest.failf "expected 2 header cells, got %d" (List.length cells))
  | _ -> Alcotest.fail "expected header + row"

(* And the JSON summary: labelled series names are object keys; they must
   survive our own parser byte for byte. *)
let test_labeled_json_roundtrip () =
  let reg = R.create ~nr_cpus:1 () in
  let name = R.labeled "fleet_completed_total" [ ("tenant", "we\"b") ] in
  let c = R.counter reg name in
  for _ = 1 to 7 do R.incr c ~cpu:0 done;
  match Metrics.Json.parse (saved Metrics.Export.Json_summary reg) with
  | Error e -> Alcotest.failf "summary does not reparse: %s" e
  | Ok j ->
    let counters = Option.get (Metrics.Json.member "counters" j) in
    (match Option.bind (Metrics.Json.member name counters) Metrics.Json.to_int with
    | Some v -> check Alcotest.int "labelled key intact" 7 v
    | None -> Alcotest.failf "labelled key %S lost in json round-trip" name)

(* ---------- profiler ---------- *)

let record p ~sched ~call = Profile.record_cell p (Profile.cell p ~sched ~call)

let test_profile_rows () =
  let p = Profile.create () in
  record p ~sched:"wfq" ~call:"pick_next_task" ~sim_ns:100 ~wall_ns:5;
  record p ~sched:"wfq" ~call:"pick_next_task" ~sim_ns:50 ~wall_ns:3;
  record p ~sched:"wfq" ~call:"task_wakeup" ~sim_ns:10 ~wall_ns:1;
  check Alcotest.int "crossings" 3 (Profile.crossings p);
  let rows = Profile.rows p in
  check Alcotest.int "one row per (sched, call)" 2 (List.length rows);
  let r = List.find (fun (r : Profile.row) -> r.call = "pick_next_task") rows in
  check Alcotest.int "aggregated count" 2 r.Profile.count;
  check Alcotest.int "aggregated sim ns" 150 r.Profile.sim_ns;
  check (Alcotest.float 0.001) "aggregated wall ns" 8.0 r.Profile.wall_ns;
  (match rows with
  | r0 :: _ -> check Alcotest.string "busiest callback first" "pick_next_task" r0.Profile.call
  | [] -> ());
  List.iter
    (fun row -> check Alcotest.int "table arity" (List.length Profile.table_header) (List.length row))
    (Profile.table_rows p)

(* A cell resolved once collects every crossing in one row, the same row
   as resolving the names each time. *)
let test_profile_cells () =
  let p = Profile.create () in
  let c = Profile.cell p ~sched:"wfq" ~call:"pick_next_task" in
  Profile.record_cell p c ~sim_ns:100 ~wall_ns:0;
  record p ~sched:"wfq" ~call:"pick_next_task" ~sim_ns:20 ~wall_ns:0;
  match Profile.rows p with
  | [ r ] ->
    check Alcotest.int "one row" 2 r.Profile.count;
    check Alcotest.int "both crossings' sim ns" 120 r.Profile.sim_ns
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

(* The boundary profiler reads an int clock and adds ints into resolved
   cells, so what a profiled run allocates beyond the same run without a
   profile is the cells' one-time registration: the same for a short run
   as for one ten times longer, nothing per crossing. *)
let test_profile_allocates_nothing_per_crossing () =
  let run ~messages profile =
    let b =
      Workloads.Setup.build ?profile ~topology:one_socket
        (Workloads.Setup.Enoki_sched (module Schedulers.Wfq))
    in
    let a0 = Profile.allocated_bytes () in
    ignore (Workloads.Pipe_bench.run b ~messages ());
    Profile.allocated_bytes () -. a0
  in
  let excess ~messages =
    let plain = run ~messages None in
    let p = Profile.create () in
    let profiled = run ~messages (Some p) in
    (Profile.crossings p, profiled -. plain)
  in
  let short_crossings, short = excess ~messages:2_000 in
  let long_crossings, long = excess ~messages:20_000 in
  check Alcotest.bool "the longer run crosses more" true (long_crossings > 5 * short_crossings);
  check (Alcotest.float 0.0) "excess bytes independent of the crossings" short long

(* ---------- end to end: wiring and zero perturbation ---------- *)

let run_pipe ~metered () =
  let nr_cpus = Kernsim.Topology.nr_cpus one_socket in
  let tracer = Trace.Tracer.create ~nr_cpus () in
  let registry = if metered then Some (R.create ~nr_cpus ()) else None in
  let profile = if metered then Some (Profile.create ()) else None in
  let b =
    Workloads.Setup.build ~tracer ?registry ?profile ~topology:one_socket
      (Workloads.Setup.Enoki_sched (module Schedulers.Wfq))
  in
  let m = b.Workloads.Setup.machine in
  let sampler =
    Option.map
      (fun reg ->
        let smp = Metrics.Sampler.create ~interval:50_000 reg in
        Metrics.Sampler.on_flush smp (fun ~ts ->
            Trace.Tracer.emit tracer ~ts ~cpu:0
              (Trace.Event.Metric_flush { tick = Metrics.Sampler.ticks smp }));
        Metrics.Sampler.start smp
          ~now:(fun () -> Kernsim.Machine.now m)
          ~defer:(fun ~delay f -> Kernsim.Machine.at m ~delay f);
        smp)
      registry
  in
  ignore (Workloads.Pipe_bench.run b ~messages:2_000 ());
  (b, tracer, sampler, profile)

let is_flush (e : Trace.Event.t) =
  match e.Trace.Event.kind with Trace.Event.Metric_flush _ -> true | _ -> false

let test_zero_perturbation () =
  let b0, tr0, _, _ = run_pipe ~metered:false () in
  let b1, tr1, sampler, profile = run_pipe ~metered:true () in
  (* the metered run really measured things... *)
  let smp = Option.get sampler in
  check Alcotest.bool "sampler ticked" true (Metrics.Sampler.ticks smp > 0);
  check Alcotest.bool "profiler recorded crossings" true
    (Profile.crossings (Option.get profile) > 0);
  let reg = Option.get b1.Workloads.Setup.registry in
  let counter = counter_named reg in
  check Alcotest.bool "machine recorded schedules" true (counter "sched_schedules_total" > 0);
  check Alcotest.bool "boundary recorded calls" true (counter "enoki_calls_total" > 0);
  (match R.find_histogram reg "workload_request_latency_ns" with
  | Some h -> check Alcotest.bool "workload recorded latencies" true (H.count (R.merged h) > 0)
  | None -> Alcotest.fail "workload latency histogram missing");
  (* ...and yet scheduling was bit-identical: same final sim time, same
     event stream once the sampler's own flush markers are filtered out. *)
  check Alcotest.int "same final sim time"
    (Kernsim.Machine.now b0.Workloads.Setup.machine)
    (Kernsim.Machine.now b1.Workloads.Setup.machine);
  let evs0 = List.map Trace.Event.to_string (Trace.Tracer.events tr0) in
  let evs1 =
    List.map Trace.Event.to_string
      (List.filter (fun e -> not (is_flush e)) (Trace.Tracer.events tr1))
  in
  check Alcotest.bool "trace is non-trivial" true (List.length evs0 > 1_000);
  check Alcotest.int "same event count" (List.length evs0) (List.length evs1);
  List.iteri
    (fun i (a, b) ->
      if a <> b then Alcotest.failf "traces diverge at event %d:\n  bare:    %s\n  metered: %s" i a b)
    (List.combine evs0 evs1)

let test_flush_events_present () =
  let _, tr, sampler, _ = run_pipe ~metered:true () in
  let flushes = List.filter is_flush (Trace.Tracer.events tr) in
  check Alcotest.bool "metric_flush events in stream" true (List.length flushes > 0);
  check Alcotest.int "one event per tick"
    (Metrics.Sampler.ticks (Option.get sampler))
    (List.length flushes)

let test_sanitizer_ignores_flush () =
  (* an armed sampler + sanitizer on the same tracer: flush markers must
     not trip any scheduling invariant *)
  let nr_cpus = Kernsim.Topology.nr_cpus one_socket in
  let tracer = Trace.Tracer.create ~nr_cpus () in
  let san = Trace.Sanitizer.create ~nr_cpus () in
  Trace.Sanitizer.attach san tracer;
  let registry = R.create ~nr_cpus () in
  let b =
    Workloads.Setup.build ~tracer ~registry ~topology:one_socket
      (Workloads.Setup.Enoki_sched (module Schedulers.Wfq))
  in
  let m = b.Workloads.Setup.machine in
  let smp = Metrics.Sampler.create ~interval:50_000 registry in
  Metrics.Sampler.on_flush smp (fun ~ts ->
      Trace.Tracer.emit tracer ~ts ~cpu:0
        (Trace.Event.Metric_flush { tick = Metrics.Sampler.ticks smp }));
  Metrics.Sampler.start smp
    ~now:(fun () -> Kernsim.Machine.now m)
    ~defer:(fun ~delay f -> Kernsim.Machine.at m ~delay f);
  ignore (Workloads.Pipe_bench.run b ~messages:1_000 ());
  check Alcotest.bool "sampler ticked" true (Metrics.Sampler.ticks smp > 0);
  check Alcotest.int "no sanitizer violations" 0
    (List.length (Trace.Sanitizer.violations san))

let () =
  Alcotest.run "metrics"
    [
      ( "registry",
        [
          Alcotest.test_case "get-or-create" `Quick test_get_or_create;
          Alcotest.test_case "shape mismatch" `Quick test_shape_mismatch;
          Alcotest.test_case "per-cpu sharding" `Quick test_sharding;
          Alcotest.test_case "probes and iteration" `Quick test_probe_and_iter;
        ] );
      ( "histogram",
        [
          QCheck_alcotest.to_alcotest merged_percentile_prop;
          Alcotest.test_case "to_buckets" `Quick test_to_buckets;
        ] );
      ( "export",
        [
          Alcotest.test_case "prometheus text" `Quick test_prometheus;
          Alcotest.test_case "json summary roundtrip" `Quick test_json_summary_roundtrip;
          Alcotest.test_case "json parser" `Quick test_json_parse_errors;
          Alcotest.test_case "format from path" `Quick test_format_of_path;
        ] );
      ("sampler", [ Alcotest.test_case "periodic ticks" `Quick test_sampler_ticks ]);
      ( "labels",
        [
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:200 ~name:"split inverts labeled"
               QCheck.(small_list (pair string string))
               prop_labeled_split_roundtrip);
          Alcotest.test_case "split handles escapes" `Quick test_split_escapes;
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:200 ~name:"csv_split inverts csv_cell"
               QCheck.(small_list string)
               prop_csv_cell_roundtrip);
          Alcotest.test_case "labelled series survive csv" `Quick test_labeled_csv_roundtrip;
          Alcotest.test_case "labelled series survive json" `Quick test_labeled_json_roundtrip;
        ] );
      ( "profile",
        [
          Alcotest.test_case "row aggregation" `Quick test_profile_rows;
          Alcotest.test_case "resolved cells" `Quick test_profile_cells;
          Alcotest.test_case "no allocation per crossing" `Quick
            test_profile_allocates_nothing_per_crossing;
        ] );
      ( "zero-perturbation",
        [
          Alcotest.test_case "bit-identical trace" `Quick test_zero_perturbation;
          Alcotest.test_case "flush events emitted" `Quick test_flush_events_present;
          Alcotest.test_case "sanitizer ignores flush" `Quick test_sanitizer_ignores_flush;
        ] );
    ]
