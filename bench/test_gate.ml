(* Tests for the bench gate engine: every way a run can disagree with its
   baseline must fail, and a baseline that no longer pins the run must
   fail too. *)

open Gate

let key = [ ("scheduler", "cfs") ]

let base ?(suite = "s") rows = { suite; rows }

let run ?base metrics = diff ?base ~suite:"s" [ row key metrics ]

let passes o = o.failures = []

let failure_mentions needle o =
  List.exists
    (fun (_, msg) ->
      let n = String.length needle and m = String.length msg in
      let rec at i = i + n <= m && (String.sub msg i n = needle || at (i + 1)) in
      at 0)
    o.failures

let expect name ok = Alcotest.(check bool) name true ok

let tail = Rel (Lower, 0.25)

let test_rel_regression () =
  let b = base [ (key, [ ("p99", 100.) ]) ] in
  expect "+20% within 25%" (passes (run ~base:b [ float ~check:tail "p99" 120. ]));
  let o = run ~base:b [ float ~check:tail "p99" 130. ] in
  expect "+30% fails" (failure_mentions "regressed past 25%" o);
  let thpt = base [ (key, [ ("thpt", 1000.) ]) ] in
  expect "higher-is-better drop fails"
    (failure_mentions "regressed" (run ~base:thpt [ float ~check:(Rel (Higher, 0.1)) "thpt" 850. ]))

let test_rel_too_loose () =
  let b = base [ (key, [ ("p99", 300.); ("thpt", 100.) ]) ] in
  let o =
    run ~base:b [ float ~check:tail "p99" 100.; float ~check:(Rel (Higher, 0.1)) "thpt" 300. ]
  in
  Alcotest.(check int) "both 3x improvements flagged" 2 (List.length o.failures);
  expect "says regenerate" (failure_mentions "baseline too loose, regenerate" o);
  expect "1.5x improvement passes"
    (passes (run ~base:b [ float ~check:tail "p99" 200.; float ~check:(Rel (Higher, 0.1)) "thpt" 150. ]))

let test_rows_extra_and_missing () =
  let b = base [ (key, [ ("events", 5.) ]); ([ ("scheduler", "wfq") ], [ ("events", 5.) ]) ] in
  let events = [ int ~check:Exact "events" 5 ] in
  let o = diff ~base:b ~suite:"s" [ row key events; row [ ("scheduler", "nest") ] events ] in
  expect "extra run row fails" (failure_mentions "row missing from the baseline" o);
  expect "missing baseline row fails" (failure_mentions "baseline row missing from this run" o);
  (* a row of same-run bounds has nothing to compare: it needs no baseline *)
  let same_run = row [ ("jobs", "2") ] [ float ~check:(Floor 1.) "speedup" 1.5 ] in
  let b = base [ (key, [ ("events", 5.) ]) ] in
  expect "same-run row needs no baseline"
    (passes (diff ~base:b ~suite:"s" [ row key events; same_run ]))

let test_wrong_suite () =
  let b = base ~suite:"obs-quick" [ (key, [ ("events", 5.) ]) ] in
  let o = run ~base:b [ int ~check:Exact "events" 5 ] in
  expect "wrong suite fails" (failure_mentions "baseline is for suite obs-quick" o)

let test_missing_metric () =
  let b = base [ (key, [ ("events", 5.) ]) ] in
  expect "metric absent from baseline"
    (failure_mentions "missing from the baseline"
       (run ~base:b [ int ~check:Exact "events" 5; int ~check:Exact "ctxsw" 3 ]));
  let b2 = base [ (key, [ ("events", 5.); ("ctxsw", 3.) ]) ] in
  expect "metric absent from run"
    (failure_mentions "ctxsw: in the baseline, missing" (run ~base:b2 [ int ~check:Exact "events" 5 ]))

let test_exact () =
  let b = base [ (key, [ ("events", 61002.) ]) ] in
  expect "identical passes" (passes (run ~base:b [ int ~check:Exact "events" 61002 ]));
  expect "off by one fails"
    (failure_mentions "must be identical" (run ~base:b [ int ~check:Exact "events" 61003 ]))

let test_same_run_bounds () =
  expect "ceiling" (not (passes (run [ int ~check:(Ceiling 0.) "violations" 1 ])));
  expect "floor" (not (passes (run [ float ~check:(Floor 2.) "speedup" 1.9 ])));
  expect "info never judged" (passes (run [ float "ns_per_event" 1e9 ]));
  Alcotest.(check int) "info not counted" 1 (run [ float "ns" 1.; int ~check:(Ceiling 0.) "v" 0 ]).checks

let test_both () =
  let b = base [ (key, [ ("bytes_per_event", 40.) ]) ] in
  let check = Both (Rel (Lower, 0.2), Ceiling 64.) in
  expect "within both" (passes (run ~base:b [ float ~check "bytes_per_event" 44. ]));
  expect "rel drift fails"
    (failure_mentions "regressed past 20%" (run ~base:b [ float ~check "bytes_per_event" 50. ]));
  let loose = base [ (key, [ ("bytes_per_event", 60.) ]) ] in
  expect "ceiling holds under a regenerated baseline"
    (failure_mentions "> ceiling 64" (run ~base:loose [ float ~check "bytes_per_event" 70. ]));
  expect "a Rel half needs a baseline row"
    (failure_mentions "row missing from the baseline"
       (diff ~base:b ~suite:"s" [ row [ ("scheduler", "wfq") ] [ float ~check "bytes_per_event" 1. ] ]))

let test_wall_ratchet () =
  let calls = ref 0 in
  let ratchet readings =
    let next = ref readings in
    Wall_ratchet
      {
        limit = 250.;
        better = Lower;
        remeasure =
          (fun () ->
            incr calls;
            match !next with v :: rest -> next := rest; v | [] -> Alcotest.fail "re-measured twice");
      }
  in
  let o = run [ float ~check:(ratchet []) "ns_per_event" 240. ] in
  expect "within limit, no re-measure" (passes o && !calls = 0);
  let o = run [ float ~check:(ratchet [ 230. ]) "ns_per_event" 260. ] in
  expect "breach confirmed away" (passes o && !calls = 1 && List.length o.notes = 1);
  let o = run [ float ~check:(ratchet [ 270. ]) "ns_per_event" 260. ] in
  expect "breach confirmed" (failure_mentions "re-measured 270" o && !calls = 2);
  let floor =
    Wall_ratchet { limit = 1.15; better = Higher; remeasure = (fun () -> 1.3) }
  in
  expect "floor ratchet takes the better reading" (passes (run [ float ~check:floor "speedup" 1.0 ]))

let test_snapshot_roundtrip () =
  let rows = [ row key [ int ~check:Exact "events" 61002; float "bytes_per_event" 0.355 ] ] in
  let j = to_json ~suite:"s" ~git_rev:"abc" ~seed:None rows in
  match of_json (Metrics.Json.parse (Metrics.Json.to_string j) |> Result.get_ok) with
  | Error e -> Alcotest.fail e
  | Ok b ->
    expect "values survive" (b.rows = [ (key, [ ("events", 61002.); ("bytes_per_event", 0.355) ]) ]);
    expect "and pass their own diff" (passes (diff ~base:b ~suite:"s" rows));
    let old = Metrics.Json.(Obj [ ("schema_version", Int 1); ("suite", String "s") ]) in
    expect "schema 1 rejected" (Result.is_error (of_json old))

let () =
  Alcotest.run "gate"
    [
      ( "diff",
        [
          Alcotest.test_case "rel regression past tolerance" `Quick test_rel_regression;
          Alcotest.test_case "3x improvement is too loose" `Quick test_rel_too_loose;
          Alcotest.test_case "extra and missing rows" `Quick test_rows_extra_and_missing;
          Alcotest.test_case "wrong-suite baseline" `Quick test_wrong_suite;
          Alcotest.test_case "missing metric" `Quick test_missing_metric;
          Alcotest.test_case "exact off by one" `Quick test_exact;
          Alcotest.test_case "same-run bounds" `Quick test_same_run_bounds;
          Alcotest.test_case "wall ratchet confirm" `Quick test_wall_ratchet;
          Alcotest.test_case "both: rel under a ceiling" `Quick test_both;
        ] );
      ("snapshot", [ Alcotest.test_case "json round trip" `Quick test_snapshot_roundtrip ]);
    ]
