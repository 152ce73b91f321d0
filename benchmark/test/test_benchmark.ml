open Benchlib
module J = Metrics.Json

(* ---------- smoke: the whole benchmark at quick sizes ---------- *)

let run_main args =
  let exe = Filename.concat Filename.parent_dir_name "main.exe" in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  (Unix.close_process_in ic, out)

let last_line out =
  match List.rev (List.filter (fun l -> l <> "") (String.split_on_char '\n' out)) with
  | l :: _ -> l
  | [] -> Alcotest.fail "no output"

let smoke () =
  let status, out = run_main [ "--quick"; "--seconds"; "0.01"; "--out"; "smoke-results.json" ] in
  Alcotest.(check bool) "exit 0" true (status = Unix.WEXITED 0);
  let j =
    match J.parse (last_line out) with Ok j -> j | Error e -> Alcotest.fail ("summary line: " ^ e)
  in
  Alcotest.(check (option bool)) "correct" (Some true)
    (match J.member "correct" j with Some (J.Bool b) -> Some b | _ -> None);
  Alcotest.(check (option int)) "failed" (Some 0) (Option.bind (J.member "failed" j) J.to_int);
  let metrics = Option.get (J.member "metrics" j) in
  List.iter
    (fun w ->
      let names =
        List.map (fun (m : Results.e2e) -> m.name) Results.end_to_end
        @ List.map (fun (l : Results.layer) -> l.lname) Results.per_layer
      in
      List.iter
        (fun n ->
          let key = Workload.name w ^ "/" ^ n in
          match Option.bind (J.member key metrics) (J.member "value") with
          | Some _ -> ()
          | None -> Alcotest.failf "%s missing from the summary" key)
        names)
    Workload.all;
  (* the results file names every workload *)
  match Result.bind (J.parse_file ~path:"smoke-results.json") Results.of_json with
  | Ok [ set ] ->
    Alcotest.(check (list string)) "workloads" (List.map Workload.name Workload.all)
      (List.map (fun (r : Results.workload_result) -> r.workload) set.workloads)
  | Ok _ -> Alcotest.fail "expected one set"
  | Error e -> Alcotest.fail e

(* ---------- wrappers do not change what is simulated ---------- *)

let pipe ~wrapped kind =
  let topology = Kernsim.Topology.one_socket in
  let b =
    if wrapped then Workload.build_wrapped ~topology kind
    else Workloads.Setup.build ~topology kind
  in
  let r = Workloads.Pipe_bench.run b ~messages:2_000 () in
  (r.wakeups, r.elapsed, Workload.machine_digest b)

let wrappers_neutral () =
  let kinds =
    (Workloads.Setup.Cfs, "cfs")
    :: List.filter_map
         (fun (e : Schedulers.Registry.entry) ->
           match e.kind with
           | Schedulers.Registry.Enoki m -> Some (Workloads.Setup.Enoki_sched m, e.name)
           | Schedulers.Registry.Builtin_cfs | Schedulers.Registry.Ghost _ -> None)
         Schedulers.Registry.all
  in
  Alcotest.(check bool) "every Enoki entry" true (List.length kinds > 10);
  List.iter
    (fun (kind, name) ->
      let plain = pipe ~wrapped:false kind in
      Span.reset ();
      let wrapped = pipe ~wrapped:true kind in
      Alcotest.(check (triple int int string)) name plain wrapped;
      let calls = List.fold_left (fun n l -> n + (Span.totals l).calls) 0 (Span.layers ()) in
      Alcotest.(check bool) (name ^ " spans counted") true (calls > 0))
    kinds

(* ---------- spans ---------- *)

let span_nesting () =
  let outer = Span.layer "test" "outer" and inner = Span.layer "test" "inner" in
  Alcotest.(check bool) "same layer twice" true (Span.layer "test" "outer" = outer);
  Span.reset ();
  for _ = 1 to 100 do
    Span.enter outer;
    Span.enter inner;
    Span.leave inner;
    Span.enter inner;
    Span.leave inner;
    Span.leave outer
  done;
  let o = Span.totals outer and i = Span.totals inner in
  Alcotest.(check int) "outer calls" 100 o.calls;
  Alcotest.(check int) "inner calls" 200 i.calls;
  (* the sample is open for the first spans, so all of these were timed *)
  Alcotest.(check int) "children" 200 o.children;
  Alcotest.(check int) "self = incl - children" (o.incl_ns - i.incl_ns) o.self_ns;
  Alcotest.(check int) "sampled spans" 300 (Span.sample_size ());
  Alcotest.check_raises "leave out of order"
    (Invalid_argument "Span.leave: not the innermost open span")
    (fun () ->
      Span.enter outer;
      Fun.protect ~finally:(fun () -> Span.leave outer) (fun () -> Span.leave inner))

(* ---------- statistics and result files ---------- *)

let quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, m, q3 = Results.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-9))) "1..10" [ 2.75; 5.5; 8.25 ] [ q1; m; q3 ];
  let q1, m, q3 = Results.quartiles [ 3.; 1.; 2. ] in
  Alcotest.(check (list (float 1e-9))) "three" [ 1.; 2.; 3. ] [ q1; m; q3 ]

let round_trip () =
  let r : Results.workload_result =
    {
      workload = "pipe-cfs";
      attempted = 7;
      failed = 1;
      problems = [ "a \"quoted\" problem\n" ];
      digest = "066d8984f281ed33dcd97a15ad6c2f3c";
      sim = [ ("sim.us_per_wakeup", 3.59999965) ];
      e2e = [ ("ns_per_event", Results.stat [ 187.61; 1e-7; 123456.789 ]) ];
      layers = [ ("span.empty_ns", 101.37786); ("cfs.calls", 8192809.) ];
    }
  in
  let sets = [ { Results.seed = 3; quick = false; workloads = [ r ] } ] in
  let text = J.to_string (Results.to_json sets) in
  match Result.bind (J.parse text) Results.of_json with
  | Ok back -> Alcotest.(check bool) "identical" true (back = sets)
  | Error e -> Alcotest.fail e

(* ---------- BENCHMARK.json names what the benchmark prints ---------- *)

let manifest () =
  let j =
    match J.parse_file ~path:"../../BENCHMARK.json" with Ok j -> j | Error e -> Alcotest.fail e
  in
  let list k = Option.value (Option.bind (J.member k j) J.to_list) ~default:[] in
  let str k o = Option.value (Option.bind (J.member k o) J.to_str) ~default:"" in
  Alcotest.(check (list (pair string string)))
    "workloads"
    (List.map (fun w -> (Workload.name w, Workload.why w)) Workload.all)
    (List.map (fun o -> (str "name" o, str "why" o)) (list "workloads"));
  Alcotest.(check (list (triple string string string)))
    "end_to_end"
    (List.map
       (fun (m : Results.e2e) -> (m.name, m.unit_, Results.better_name m.better))
       Results.end_to_end)
    (List.map (fun o -> (str "name" o, str "unit" o, str "better" o)) (list "end_to_end"));
  Alcotest.(check (list (float 1e-12)))
    "bounds"
    (List.map (fun (m : Results.e2e) -> m.bound) Results.end_to_end)
    (List.map
       (fun o -> Option.value (Option.bind (J.member "bound" o) J.to_float) ~default:0.)
       (list "end_to_end"));
  Alcotest.(check (list (triple string string string)))
    "per_layer"
    (List.map
       (fun (l : Results.layer) -> (l.lname, l.lunit, Results.better_name l.lbetter))
       Results.per_layer)
    (List.map (fun o -> (str "name" o, str "unit" o, str "better" o)) (list "per_layer"))

let () =
  Alcotest.run "benchmark"
    [
      ( "benchmark",
        [
          Alcotest.test_case "quick smoke of all four workloads" `Slow smoke;
          Alcotest.test_case "wrappers leave the simulation unchanged" `Quick wrappers_neutral;
          Alcotest.test_case "span nesting and counts" `Quick span_nesting;
          Alcotest.test_case "quartiles match Python's" `Quick quartiles;
          Alcotest.test_case "results JSON round-trips" `Quick round_trip;
          Alcotest.test_case "BENCHMARK.json matches the catalogue" `Quick manifest;
        ] );
    ]
