module J = Metrics.Json

let jobs () = max 1 (min 2 (Domain.recommended_domain_count ()))

let word = float_of_int (Sys.word_size / 8)

(* ---------- end-to-end pass ---------- *)

type repeat = {
  setup_ns : int list;
  wall_ns : int;
  events : int;
  alloc_bytes : float;
  peak_rss_kb : int;
  digest : string;
  artefacts : string;
  sim : (string * float) list;
  problems : string list;
}

let setups_per_child = 3

(* Bytes allocated by every domain.  [Gc.allocated_bytes] counts only the
   calling domain, and [Domain_pool.allocated_bytes] counts the caller's
   share inside batches a second time; [quick_stat] sums all domains
   (exactly, once the pool's domains have been joined). *)
let allocated_bytes () =
  let s = Gc.quick_stat () in
  (s.minor_words +. s.major_words -. s.promoted_words) *. word

(* VmHWM, the peak resident set of this process *)
let peak_rss_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0
  | status ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> Option.value (int_of_string_opt kb) ~default:acc
          | [] -> acc)
        | _ -> acc)
      0
      (String.split_on_char '\n' status)

let pool_for w =
  match w with
  | Workload.Fleet8x8 when jobs () > 1 -> Some (Ds.Domain_pool.create ~domains:(jobs ()) ())
  | _ -> None

let floats kvs = J.Obj (List.map (fun (k, v) -> (k, J.Float v)) kvs)

let repeat_to_json r =
  J.Obj
    [
      ("setup_ns", J.List (List.map (fun n -> J.Int n) r.setup_ns));
      ("wall_ns", J.Int r.wall_ns);
      ("events", J.Int r.events);
      ("alloc_bytes", J.Float r.alloc_bytes);
      ("peak_rss_kb", J.Int r.peak_rss_kb);
      ("digest", J.String r.digest);
      ("artefacts", J.String r.artefacts);
      ("sim", floats r.sim);
      ("problems", J.List (List.map (fun p -> J.String p) r.problems));
    ]

let repeat_of_json j =
  let field k conv =
    match Option.bind (J.member k j) conv with
    | Some v -> v
    | None -> failwith ("child result lacks " ^ k)
  in
  let list conv v = Option.map (List.filter_map conv) (J.to_list v) in
  let num v = match J.to_float v with Some f -> Some f | None -> Option.map float_of_int (J.to_int v) in
  match
    {
      setup_ns = field "setup_ns" (list J.to_int);
      wall_ns = field "wall_ns" J.to_int;
      events = field "events" J.to_int;
      alloc_bytes = field "alloc_bytes" num;
      peak_rss_kb = field "peak_rss_kb" J.to_int;
      digest = field "digest" J.to_str;
      artefacts = field "artefacts" J.to_str;
      sim =
        field "sim" (function
          | J.Obj kvs -> Some (List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (num v)) kvs)
          | _ -> None);
      problems = field "problems" (list J.to_str);
    }
  with
  | r -> Ok r
  | exception Failure msg -> Error msg

let child ~quick ~seed w =
  let pool = pool_for w in
  let setups = ref [] and run = ref None in
  for _ = 1 to setups_per_child do
    (* drop the previous set-up first: a fresh process would not hold it,
       and its memory would count in the peak RSS *)
    run := None;
    Gc.full_major ();
    let t0 = Span.now_ns () in
    let r = Workload.prepare ?pool ~quick ~seed w in
    setups := (Span.now_ns () - t0) :: !setups;
    run := Some r
  done;
  let a0 = allocated_bytes () in
  let o = (Option.get !run) () in
  Option.iter Ds.Domain_pool.shutdown pool;
  let alloc = allocated_bytes () -. a0 in
  let r =
    {
      setup_ns = List.rev !setups;
      wall_ns = o.wall_ns;
      events = o.events;
      alloc_bytes = alloc;
      peak_rss_kb = peak_rss_kb ();
      digest = o.digest;
      artefacts = o.artefacts;
      sim = o.sim;
      problems = o.problems;
    }
  in
  print_endline (J.to_string (repeat_to_json r))

let spawn ~exe ~quick ~seed w =
  let args =
    [ exe; "--child"; Workload.name w; "--seed"; string_of_int seed ]
    @ if quick then [ "--quick" ] else []
  in
  let ic = Unix.open_process_args_in exe (Array.of_list args) in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let last =
    match List.rev (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' out)) with
    | l :: _ -> l
    | [] -> ""
  in
  match status with
  | Unix.WEXITED 0 -> (
    match J.parse last with
    | Ok j -> repeat_of_json j
    | Error e -> Error ("unreadable child result: " ^ e))
  | Unix.WEXITED n -> Error (Printf.sprintf "child exited with code %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> Error (Printf.sprintf "child stopped by signal %d" n)

let end_to_end ~exe ~quick ~seed ~seconds ?(on_repeat = fun _ _ -> ()) ws =
  let results = Hashtbl.create 4 in
  let budget = seconds *. float_of_int (List.length ws) in
  let t0 = Unix.gettimeofday () in
  let rounds = ref 0 in
  (* interleaved rounds: slow drift on the host lands on every workload *)
  while !rounds < 3 || (Unix.gettimeofday () -. t0 < budget && !rounds < 100) do
    incr rounds;
    List.iter
      (fun w ->
        let r = spawn ~exe ~quick ~seed w in
        on_repeat w r;
        Hashtbl.replace results w (r :: Option.value (Hashtbl.find_opt results w) ~default:[]))
      ws
  done;
  List.map (fun w -> (w, List.rev (Hashtbl.find results w))) ws

(* ---------- traced pass ---------- *)

type traced = {
  metrics : (string * float) list;
  runs : int;
  problems : string list;
  digest : string;
}

type measured = {
  o : Workload.outcome;
  minor_collections : int;
  major_collections : int;
  promoted_words : float;
}

let measure prepared =
  let s0 = Gc.quick_stat () in
  let o = prepared () in
  let s1 = Gc.quick_stat () in
  {
    o;
    minor_collections = s1.minor_collections - s0.minor_collections;
    major_collections = s1.major_collections - s0.major_collections;
    promoted_words = s1.promoted_words -. s0.promoted_words;
  }

let hooks_of_interest = [ "select_task_rq"; "pick_next_task"; "task_wakeup"; "balance"; "task_tick" ]

let div a b = if b = 0. then 0. else a /. b

(* The span totals of every layer, as they stand now. *)
let snapshot () =
  let t = List.map (fun l -> (l, Span.totals l)) (Span.layers ()) in
  fun l -> Option.value (List.assoc_opt l t) ~default:Span.zero

let family snap fam =
  List.fold_left
    (fun acc l -> if Span.family l = fam then Span.add acc (snap l) else acc)
    Span.zero (Span.layers ())

(* Per-call figures of one family of wrapped entry points: allocation from
   the [exact] snapshot, time from the [sampled] one. *)
let family_metrics cal ~exact ~sampled fam =
  let calls t = float_of_int t.Span.calls in
  let e = family exact fam and s = family sampled fam in
  [
    (fam ^ ".calls", calls e);
    (fam ^ ".self_ns_per_call", div (Span.self_ns cal s) (calls s));
    (fam ^ ".self_bytes_per_call", div (Span.self_words cal e *. word) (calls e));
  ]
  @ List.map
      (fun h ->
        let t = sampled (Span.layer fam h) in
        (Printf.sprintf "%s.%s.ns_per_call" fam h, div (Span.self_ns cal t) (calls t)))
      hooks_of_interest

let write_sample ~dir w =
  let path = Filename.concat dir (Printf.sprintf "spans-%s.json" (Workload.name w)) in
  match Out_channel.with_open_text path (fun oc -> output_string oc (Span.sample_chrome_json ())) with
  | () -> ()
  | exception Sys_error e -> Printf.eprintf "benchmark: cannot write span sample: %s\n%!" e

(* Untraced and span-wrapped runs alternate, so host drift lands on both
   alike; span totals accumulate over every wrapped run. *)
let pairs = 3

let traced ?sample_dir ~quick ~seed w =
  let cal = Timed.calibrate () in
  let problems = ref [] and runs = ref 0 in
  let problem p = problems := !problems @ [ p ] in
  let pool = pool_for w in
  let run ?wrapped ?hooks ?(pool = pool) ?anatomy () =
    incr runs;
    let m = measure (Workload.prepare ?wrapped ?hooks ?pool ?anatomy ~quick ~seed w) in
    problems := !problems @ m.o.problems;
    m
  in
  let anatomy = w = Workload.Fleet8x8 in
  (* allocation, counted exactly: every span reads the word counter *)
  Span.reset ();
  let exact = Span.with_every 1 (fun () -> run ~wrapped:true ~anatomy ()) in
  let exact_totals = snapshot () in
  let machine_words = Span.outside_words cal ~run_words:exact.o.run_words in
  (* time, sampled: untraced and wrapped runs alternate, in alternating
     order, so host drift and heap growth land on both alike *)
  Span.reset ();
  let base, wrapped =
    List.split
      (List.init pairs (fun i ->
           if i mod 2 = 0 then
             let b = run () in
             (b, run ~wrapped:true ~anatomy ())
           else
             let t = run ~wrapped:true ~anatomy () in
             (run (), t)))
  in
  let sampled = snapshot () in
  let sum f ms = List.fold_left (fun a (m : measured) -> a + f m) 0 ms in
  let machine_ns = Span.outside_ns cal ~run_ns:(sum (fun m -> m.o.run_ns) wrapped) in
  Option.iter (fun dir -> write_sample ~dir w) sample_dir;
  let first = List.hd base in
  (* every other run must simulate exactly what the first did *)
  let same label (m : measured) =
    if m.o.digest <> first.o.digest then problem (label ^ " run changed the simulated outputs")
  in
  List.iter (same "untraced") base;
  List.iter
    (fun (m : measured) ->
      same "span-wrapped" m;
      if m.o.artefacts <> first.o.artefacts then
        problem "span-wrapped run changed the trace or metric exports")
    (exact :: wrapped);
  let fl = float_of_int in
  let events = fl first.o.events in
  let per_event x = div x events in
  let host (m : measured) k = Option.value (List.assoc_opt k m.o.host) ~default:0. in
  let self_ns fam = Span.self_ns cal (family sampled fam) in
  let cfs = family exact_totals "cfs" in
  let ledger =
    match w with
    | Workload.Fleet8x8 -> []
    | _ ->
      (* the machine is what the simulation spent outside every class
         hook; sampled times cover [pairs] runs *)
      let layers_ns = machine_ns +. self_ns "cfs" +. self_ns "enoki_c" +. self_ns "sched" in
      [
        ("machine.self_ns_per_event", per_event (machine_ns /. fl pairs));
        ("machine.self_bytes_per_event", per_event (machine_words *. word));
        ( "machine.class_calls_per_event",
          per_event (fl (cfs.calls + (family exact_totals "enoki_c").calls)) );
        (* how far the calibrated layers land from the untraced runs *)
        ("ledger.residual", Float.abs (div layers_ns (fl (sum (fun m -> m.o.run_ns) base)) -. 1.));
      ]
  in
  let layers =
    [
      ("sim.events", events);
      ("cfs.calls", fl cfs.calls);
      ("cfs.ns_per_call", div (self_ns "cfs") (fl (family sampled "cfs").calls));
      ("cfs.bytes_per_call", div (Span.self_words cal cfs *. word) (fl cfs.calls));
      ("enoki_c.violations", host first "enoki_c.violations");
      ("gc.minor_collections", fl first.minor_collections);
      ("gc.major_collections", fl first.major_collections);
      ("gc.promoted_bytes_per_event", per_event (first.promoted_words *. word));
      ( "trace_overhead_ratio",
        div (fl (sum (fun m -> m.o.wall_ns) wrapped)) (fl (sum (fun m -> m.o.wall_ns) base)) );
      ("span.empty_ns", cal.total_ns);
      ("span.counted_ns", cal.untimed_ns);
      ("span.empty_bytes", cal.total_words *. word);
    ]
    @ ledger
    @ family_metrics cal ~exact:exact_totals ~sampled "enoki_c"
    @ family_metrics cal ~exact:exact_totals ~sampled "sched"
    @ first.o.sim
  in
  let sim_ns_per_call (m : measured) =
    ("enoki_c.sim_ns_per_call", div (host m "profile.sim_ns") (host m "profile.calls"))
  in
  let specific =
    match w with
    | Workload.Pipe_cfs -> []
    | Workload.Pipe_wfq ->
      let p = run ~hooks:{ Workload.no_hooks with profile = true } () in
      same "profiled" p;
      [ sim_ns_per_call p ]
    | Workload.Schbench80 ->
      (* each hook's price: a run with only that hook against one with none *)
      let off = run ~hooks:Workload.no_hooks () in
      same "hooks-off" off;
      let hook_ns label hooks =
        let m = run ~hooks () in
        same label m;
        per_event (fl (m.o.run_ns - off.o.run_ns))
      in
      let trace_events = host first "trace.events" in
      [
        sim_ns_per_call first;
        ("trace.hook_ns_per_event", hook_ns "tracer-only" { Workload.no_hooks with tracer = true });
        ("metrics.hook_ns_per_event", hook_ns "metrics-only" { Workload.no_hooks with metrics = true });
        ("profile.hook_ns_per_event", hook_ns "profile-only" { Workload.no_hooks with profile = true });
        ("trace.events_per_event", per_event (host first "trace.emitted"));
        ("trace.dropped", host first "trace.dropped");
        ("trace.drain_ns_per_trace_event", div (host first "trace.drain_ns") trace_events);
        ("trace.export_ns_per_trace_event", div (host first "trace.export_ns") trace_events);
        ("sanitizer.violations", host first "sanitizer.violations");
        ("metrics.export_ns", host first "metrics.export_ns");
      ]
    | Workload.Fleet8x8 ->
      let speedup =
        match pool with
        | Some _ ->
          let seq = run ~pool:None () in
          same "sequential" seq;
          div (fl seq.o.wall_ns) (fl first.o.wall_ns)
        | None -> 1.
      in
      let traffic_ns, lb_ns = Workload.front_end_ns ~quick ~seed in
      let prefixed p (m : measured) =
        List.filter (fun (k, _) -> String.starts_with ~prefix:p k) m.o.host
      in
      [ ("pool.speedup", speedup); ("traffic.ns_per_request", traffic_ns); ("lb.ns_per_pick", lb_ns) ]
      @ prefixed "fleet." first
      @ prefixed "anatomy." (List.hd wrapped)
  in
  Option.iter Ds.Domain_pool.shutdown pool;
  { metrics = layers @ specific; runs = !runs; problems = !problems; digest = first.o.digest }
