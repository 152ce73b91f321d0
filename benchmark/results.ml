module J = Metrics.Json

type better = Lower | Higher

type e2e = { name : string; unit_ : string; better : better; bound : float }

let end_to_end =
  [
    { name = "ns_per_event"; unit_ = "ns"; better = Lower; bound = 0.25 };
    { name = "setup_s"; unit_ = "s"; better = Lower; bound = 0.25 };
    { name = "alloc_bytes_per_event"; unit_ = "B"; better = Lower; bound = 0.10 };
    { name = "peak_rss_mb"; unit_ = "MB"; better = Lower; bound = 0.10 };
  ]

type layer = { lname : string; lunit : string; lbetter : better; exact : bool }

let per_layer =
  let m ?(better = Lower) ?(exact = false) lname lunit = { lname; lunit; lbetter = better; exact } in
  let hooks fam =
    List.map
      (fun h -> m (Printf.sprintf "%s.%s.ns_per_call" fam h) "ns")
      Measure.hooks_of_interest
  in
  [
    m ~exact:true "sim.events" "count";
    m ~exact:true "sim.us_per_wakeup" "us";
    m ~exact:true "sim.wakeup_p99_us" "us";
    m ~exact:true "sim.req_p99_us" "us";
    m ~exact:true "sim.drop_ratio" "ratio";
    m "machine.self_ns_per_event" "ns";
    m "machine.self_bytes_per_event" "B";
    m ~exact:true "machine.class_calls_per_event" "count";
    m ~exact:true "cfs.calls" "count";
    m "cfs.ns_per_call" "ns";
    m "cfs.bytes_per_call" "B";
    m ~exact:true "enoki_c.calls" "count";
    m "enoki_c.self_ns_per_call" "ns";
    m "enoki_c.self_bytes_per_call" "B";
    m ~exact:true "enoki_c.sim_ns_per_call" "ns";
    m ~exact:true "enoki_c.violations" "count";
  ]
  @ hooks "enoki_c"
  @ [
      m ~exact:true "sched.calls" "count";
      m "sched.self_ns_per_call" "ns";
      m "sched.self_bytes_per_call" "B";
    ]
  @ hooks "sched"
  @ [
      m "trace.hook_ns_per_event" "ns";
      m ~exact:true "trace.events_per_event" "count";
      m ~exact:true "trace.dropped" "count";
      m "trace.drain_ns_per_trace_event" "ns";
      m "trace.export_ns_per_trace_event" "ns";
      m ~exact:true "sanitizer.violations" "count";
      m "metrics.hook_ns_per_event" "ns";
      m "metrics.export_ns" "ns";
      m "profile.hook_ns_per_event" "ns";
      m ~exact:true "fleet.epochs" "count";
      m "fleet.step_ns_p50" "ns";
      m "fleet.step_ns_p99" "ns";
      m "traffic.ns_per_request" "ns";
      m "lb.ns_per_pick" "ns";
      m ~better:Higher "pool.speedup" "x";
    ]
  @ List.map
      (fun ph -> m ~exact:true (Printf.sprintf "anatomy.%s_mean_ns" (Trace.Anatomy.phase_name ph)) "ns")
      Trace.Anatomy.phases
  @ [
      m ~exact:true "anatomy.max_sum_error" "ns";
      m "gc.minor_collections" "count";
      m "gc.major_collections" "count";
      m "gc.promoted_bytes_per_event" "B";
      m "trace_overhead_ratio" "x";
      m "ledger.residual" "ratio";
      m "span.empty_ns" "ns";
      m "span.counted_ns" "ns";
      m "span.empty_bytes" "B";
    ]

let better_name = function Lower -> "lower" | Higher -> "higher"

(* ---------- statistics ---------- *)

let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (0., 0., 0.)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

type stat = { median : float; q1 : float; q3 : float; n : int }

let stat xs =
  let q1, median, q3 = quartiles xs in
  { median; q1; q3; n = List.length xs }

(* ---------- reference digests ---------- *)

let expected_path w = Filename.concat "benchmark/expected" (Workload.name w ^ ".json")

let read_expected w =
  let path = expected_path w in
  if not (Sys.file_exists path) then Ok None
  else
    match J.parse_file ~path with
    | Ok j -> Ok (Some j)
    | Error e -> Error (Printf.sprintf "%s: %s" path e)

let expected w ~seed =
  match read_expected w with
  | Error e -> Error e
  | Ok None -> Error (expected_path w ^ " is missing")
  | Ok (Some j) -> (
    match Option.bind (J.member "seeds" j) (J.member (string_of_int seed)) with
    | None -> Ok None
    | Some e -> (
      match
        (Option.bind (J.member "digest" e) J.to_str, Option.bind (J.member "artefacts" e) J.to_str)
      with
      | Some d, Some a -> Ok (Some (d, a))
      | _ ->
        Error
          (Printf.sprintf "%s: seed %d entry lacks digest or artefacts" (expected_path w) seed)))

let write_expected w ~seed ~digest ~artefacts ~sim =
  let seeds =
    match read_expected w with
    | Ok (Some j) -> (
      match J.member "seeds" j with Some (J.Obj kvs) -> kvs | _ -> [])
    | Ok None | Error _ -> []
  in
  let entry =
    J.Obj
      [
        ("digest", J.String digest);
        ("artefacts", J.String artefacts);
        ("sim", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) sim));
      ]
  in
  let key = string_of_int seed in
  let seeds =
    List.sort
      (fun (a, _) (b, _) -> compare (int_of_string_opt a) (int_of_string_opt b))
      ((key, entry) :: List.remove_assoc key seeds)
  in
  J.save ~path:(expected_path w)
    (J.Obj [ ("workload", J.String (Workload.name w)); ("seeds", J.Obj seeds) ])

(* ---------- one workload ---------- *)

type workload_result = {
  workload : string;
  attempted : int;
  failed : int;
  problems : string list;
  digest : string;
  sim : (string * float) list;
  e2e : (string * stat) list;
  layers : (string * float) list;
}

let workload_result ~quick ~seed w ~repeats ~(traced : Measure.traced option) =
  let reference, ref_problems =
    if quick then (None, [])
    else
      match expected w ~seed with
      | Ok r -> (r, [])
      | Error e -> (None, [ e ])
  in
  let ok = List.filter_map Result.to_option repeats in
  (* without a stored reference, runs of one seed must still agree with
     each other and with the traced pass *)
  let digest, artefacts =
    match (reference, ok, traced) with
    | Some (d, a), _, _ -> (d, a)
    | None, (r : Measure.repeat) :: _, _ -> (r.digest, r.artefacts)
    | None, [], Some t -> (t.digest, "")
    | None, [], None -> ("", "")
  in
  let repeat_problems =
    List.map
      (function
        | Error e -> [ e ]
        | Ok (r : Measure.repeat) ->
          r.problems
          @ (if r.digest <> digest then [ "simulated outputs differ from the reference digest" ]
             else [])
          @
          if r.artefacts <> artefacts then
            [ "trace or metric exports differ from the reference digest" ]
          else [])
      repeats
  in
  let traced_problems =
    match traced with
    | None -> []
    | Some t ->
      t.problems
      @
      if t.digest <> digest then [ "traced pass: simulated outputs differ from the reference digest" ]
      else []
  in
  let failed_repeats = List.length (List.filter (fun ps -> ps <> []) repeat_problems) in
  let e2e =
    if ok = [] then []
    else
      let each f = List.map (fun (r : Measure.repeat) -> f r) ok in
      let per_event f = each (fun r -> f r /. float_of_int (max 1 r.events)) in
      [
        ("ns_per_event", stat (per_event (fun r -> float_of_int r.wall_ns)));
        ( "setup_s",
          stat (List.concat (each (fun r -> List.map (fun ns -> float_of_int ns /. 1e9) r.setup_ns)))
        );
        ("alloc_bytes_per_event", stat (per_event (fun r -> r.alloc_bytes)));
        ("peak_rss_mb", stat (each (fun r -> float_of_int r.peak_rss_kb /. 1024.)));
      ]
  in
  let sim =
    match ok with
    | r :: _ -> r.sim
    | [] -> (
      match traced with
      | Some t ->
        List.filter (fun (k, _) -> String.starts_with ~prefix:"sim." k && k <> "sim.events") t.metrics
      | None -> [])
  in
  let layers =
    match traced with
    | None -> []
    | Some t ->
      List.map
        (fun l -> (l.lname, Option.value (List.assoc_opt l.lname t.metrics) ~default:0.))
        per_layer
  in
  let uniq l = List.sort_uniq compare l in
  {
    workload = Workload.name w;
    attempted =
      List.length repeats + (match traced with Some t -> t.runs | None -> 0) + List.length ref_problems;
    failed = failed_repeats + (if traced_problems <> [] then 1 else 0) + List.length ref_problems;
    problems = uniq (ref_problems @ List.concat repeat_problems @ traced_problems);
    digest;
    sim;
    e2e;
    layers;
  }

(* ---------- JSON ---------- *)

type set = { seed : int; quick : bool; workloads : workload_result list }

let floats kvs = J.Obj (List.map (fun (k, v) -> (k, J.Float v)) kvs)

let stat_json s =
  J.Obj [ ("median", J.Float s.median); ("q1", J.Float s.q1); ("q3", J.Float s.q3); ("n", J.Int s.n) ]

let workload_json r =
  J.Obj
    [
      ("workload", J.String r.workload);
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ("problems", J.List (List.map (fun p -> J.String p) r.problems));
      ("digest", J.String r.digest);
      ("sim", floats r.sim);
      ("end_to_end", J.Obj (List.map (fun (k, s) -> (k, stat_json s)) r.e2e));
      ("per_layer", floats r.layers);
    ]

let set_json s =
  J.Obj
    [
      ("seed", J.Int s.seed);
      ("quick", J.Bool s.quick);
      ("workloads", J.List (List.map workload_json s.workloads));
    ]

let to_json sets = J.Obj [ ("sets", J.List (List.map set_json sets)) ]

exception Bad of string

let get k conv j =
  match Option.bind (J.member k j) conv with Some v -> v | None -> raise (Bad ("missing or bad " ^ k))

let obj = function J.Obj kvs -> Some kvs | _ -> None

let floats_of j = List.map (fun (k, v) -> (k, Option.value (J.to_float v) ~default:Float.nan)) j

let workload_of_json j =
  {
    workload = get "workload" J.to_str j;
    attempted = get "attempted" J.to_int j;
    failed = get "failed" J.to_int j;
    problems = List.filter_map J.to_str (get "problems" J.to_list j);
    digest = get "digest" J.to_str j;
    sim = floats_of (get "sim" obj j);
    e2e =
      List.map
        (fun (k, s) ->
          ( k,
            {
              median = get "median" J.to_float s;
              q1 = get "q1" J.to_float s;
              q3 = get "q3" J.to_float s;
              n = get "n" J.to_int s;
            } ))
        (get "end_to_end" obj j);
    layers = floats_of (get "per_layer" obj j);
  }

let of_json j =
  match
    List.map
      (fun s ->
        {
          seed = get "seed" J.to_int s;
          quick = get "quick" (function J.Bool b -> Some b | _ -> None) s;
          workloads = List.map workload_of_json (get "workloads" J.to_list s);
        })
      (get "sets" J.to_list j)
  with
  | sets -> Ok sets
  | exception Bad e -> Error e

(* ---------- printing ---------- *)

let fmt v =
  let a = Float.abs v in
  if v = 0. then "0"
  else if a >= 1e6 then Printf.sprintf "%.4g" v
  else if a >= 100. then Printf.sprintf "%.1f" v
  else if a >= 1. then Printf.sprintf "%.3f" v
  else Printf.sprintf "%.4g" v

let print_set s =
  Printf.printf "\nseed %d%s\n" s.seed (if s.quick then " (quick sizes)" else "");
  if List.exists (fun r -> r.e2e <> []) s.workloads then begin
    print_endline "\nend to end, tracing off: median [q1, q3] over n";
    Printf.printf "%-22s" "workload";
    List.iter
      (fun m ->
        Printf.printf " %30s" (Printf.sprintf "%s (%s, bound %.0f%%)" m.name m.unit_ (m.bound *. 100.)))
      end_to_end;
    Printf.printf " %12s\n" "failed_runs";
    List.iter
      (fun r ->
        Printf.printf "%-22s" r.workload;
        List.iter
          (fun m ->
            match List.assoc_opt m.name r.e2e with
            | Some st ->
              Printf.printf " %30s"
                (Printf.sprintf "%s [%s, %s] n=%d" (fmt st.median) (fmt st.q1) (fmt st.q3) st.n)
            | None -> Printf.printf " %30s" "-")
          end_to_end;
        Printf.printf " %12s\n" (Printf.sprintf "%d/%d" r.failed r.attempted))
      s.workloads
  end;
  print_endline "\nsimulated results (exact for a seed)";
  List.iter
    (fun r ->
      Printf.printf "%-22s %s  digest %s\n" r.workload
        (String.concat "  " (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (fmt v)) r.sim))
        r.digest)
    s.workloads;
  if List.exists (fun r -> r.layers <> []) s.workloads then begin
    print_endline "\nper layer, traced pass";
    Printf.printf "%-38s %-6s" "metric" "unit";
    List.iter (fun r -> Printf.printf " %20s" r.workload) s.workloads;
    print_newline ();
    List.iter
      (fun l ->
        Printf.printf "%-38s %-6s" l.lname l.lunit;
        List.iter
          (fun r ->
            Printf.printf " %20s"
              (match List.assoc_opt l.lname r.layers with Some v -> fmt v | None -> "-"))
          s.workloads;
        print_newline ())
      per_layer
  end;
  List.iter
    (fun r -> List.iter (fun p -> Printf.printf "FAILED %s: %s\n" r.workload p) r.problems)
    s.workloads

let unit_of name =
  match List.find_opt (fun m -> m.name = name) end_to_end with
  | Some m -> m.unit_
  | None -> (
    match List.find_opt (fun l -> l.lname = name) per_layer with Some l -> l.lunit | None -> "")

let summary_line s =
  let attempted = List.fold_left (fun a r -> a + r.attempted) 0 s.workloads
  and failed = List.fold_left (fun a r -> a + r.failed) 0 s.workloads in
  let prefix r = match s.workloads with [ _ ] -> "" | _ -> r.workload ^ "/" in
  let metric r (k, v) =
    (prefix r ^ k, J.Obj [ ("value", J.Float v); ("unit", J.String (unit_of k)) ])
  in
  let metrics =
    List.concat_map
      (fun r -> List.map (metric r) (List.map (fun (k, st) -> (k, st.median)) r.e2e @ r.layers))
      s.workloads
  in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (failed = 0));
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ("metrics", J.Obj metrics);
       ])

(* ---------- comparing sets ---------- *)

(* relative change of [b] against [a], signed so that positive is worse *)
let worse_by m a b =
  if a = 0. then 0. else match m.better with Lower -> (b -. a) /. a | Higher -> (a -. b) /. a

let pairs a b =
  List.filter_map
    (fun ra ->
      Option.map (fun rb -> (ra, rb)) (List.find_opt (fun rb -> rb.workload = ra.workload) b.workloads))
    a.workloads

let agree a b =
  let all_ok = ref true in
  List.iter
    (fun (ra, rb) ->
      List.iter
        (fun m ->
          match (List.assoc_opt m.name ra.e2e, List.assoc_opt m.name rb.e2e) with
          | Some sa, Some sb ->
            let d = worse_by m sa.median sb.median in
            let ok = Float.abs d <= m.bound in
            if not ok then all_ok := false;
            Printf.printf "%-22s %-24s %12s %12s %+7.2f%% within %.0f%%: %s\n" ra.workload m.name
              (fmt sa.median) (fmt sb.median) (100. *. d) (100. *. m.bound)
              (if ok then "agree" else "DISAGREE")
          | _ -> ())
        end_to_end;
      let exact =
        ("digest", ra.digest = rb.digest)
        :: List.map (fun (k, v) -> (k, List.assoc_opt k rb.sim = Some v)) ra.sim
        @ List.filter_map
            (fun l ->
              match (List.assoc_opt l.lname ra.layers, List.assoc_opt l.lname rb.layers) with
              | Some x, Some y when l.exact -> Some (l.lname, x = y)
              | _ -> None)
            per_layer
      in
      List.iter
        (fun (k, same) ->
          if not same then all_ok := false;
          Printf.printf "%-22s %-24s exact: %s\n" ra.workload k
            (if same then "identical" else "DIFFERENT"))
        exact)
    (pairs a b);
  !all_ok

let compare a b =
  let ok = ref true in
  Printf.printf "%-22s" "workload";
  List.iter
    (fun m -> Printf.printf " %36s" (Printf.sprintf "%s (bound %.0f%%)" m.name (100. *. m.bound)))
    end_to_end;
  print_newline ();
  List.iter
    (fun (ra, rb) ->
      Printf.printf "%-22s" ra.workload;
      List.iter
        (fun m ->
          match (List.assoc_opt m.name ra.e2e, List.assoc_opt m.name rb.e2e) with
          | Some sa, Some sb ->
            let d = worse_by m sa.median sb.median in
            let verdict = if d > m.bound then "WORSE" else if d < -.m.bound then "better" else "ok" in
            if d > m.bound then ok := false;
            Printf.printf " %36s"
              (Printf.sprintf "%s -> %s %+.1f%% %s" (fmt sa.median) (fmt sb.median) (100. *. d) verdict)
          | _ -> Printf.printf " %36s" "-")
        end_to_end;
      print_newline ();
      if ra.digest <> rb.digest then
        Printf.printf "%-22s simulated outputs differ (digest)\n" ra.workload)
    (pairs a b);
  !ok
