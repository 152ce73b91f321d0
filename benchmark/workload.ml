module M = Kernsim.Machine
module Setup = Workloads.Setup
module Fleet = Cluster.Fleet

type t = Pipe_cfs | Pipe_wfq | Schbench80 | Fleet8x8

let all = [ Pipe_cfs; Pipe_wfq; Schbench80; Fleet8x8 ]

let name = function
  | Pipe_cfs -> "pipe-cfs"
  | Pipe_wfq -> "pipe-wfq"
  | Schbench80 -> "schbench80-observed"
  | Fleet8x8 -> "fleet-8x8"

let of_name s = List.find_opt (fun w -> name w = s) all

let why = function
  | Pipe_cfs ->
    "built-in CFS pipe ping-pong: only the event core and the machine work; Enoki-C, hooks and \
     the cluster tier are bypassed"
  | Pipe_wfq ->
    "the same closed loop through Enoki-C into the WFQ module: the boundary and the module \
     dominate the per-event cost"
  | Schbench80 ->
    "WFQ schbench on 80 cpus with tracer, sanitizer, metrics and profile on: wide cpumasks, \
     per-cpu scans and every observability hook"
  | Fleet8x8 ->
    "8 heterogeneous hosts under open-loop traffic on a domain pool: the only run of traffic, \
     load balancer, epoch barrier and pool"

type hooks = { tracer : bool; metrics : bool; profile : bool }

let no_hooks = { tracer = false; metrics = false; profile = false }

let default_hooks = function
  | Schbench80 -> { tracer = true; metrics = true; profile = true }
  | Pipe_cfs | Pipe_wfq | Fleet8x8 -> no_hooks

type outcome = {
  events : int;
  wall_ns : int;
  run_ns : int;
  run_words : int;
  sim : (string * float) list;
  digest : string;
  artefacts : string;
  host : (string * float) list;
  problems : string list;
}

let hex parts = Digest.to_hex (Digest.string (String.concat ";" parts))

let entry n =
  match Schedulers.Registry.find n with
  | Some e -> e
  | None -> invalid_arg ("benchmark: no scheduler " ^ n)

(* ---------- sizes ---------- *)

(* Full sizes make one timed run last 0.3 to 0.9 s on a 2-core x86
   sandbox, so one measurement holds a few dozen runs. *)
let cfs_messages ~quick = if quick then 2_000 else 250_000

let wfq_messages ~quick = if quick then 2_000 else 100_000

let schbench_params ~quick ~seed =
  let p = Workloads.Schbench.default_params ~seed () in
  if quick then
    { p with messages = 4; workers = 4; warmup = Kernsim.Time.ms 10; duration = Kernsim.Time.ms 40 }
  else
    { p with messages = 16; workers = 16; warmup = Kernsim.Time.ms 100; duration = Kernsim.Time.ms 300 }

let fleet_warmup ~quick = Kernsim.Time.ms (if quick then 10 else 100)

let fleet_duration ~quick = Kernsim.Time.ms (if quick then 60 else 500)

let fleet_tenants ~quick =
  Cluster.Traffic.standard_mix
    ~connections:(if quick then 32 else 256)
    ~load_kreqs:(if quick then 24. else 240.)
    ()

let fleet_lb = Cluster.Lb.Least_outstanding

let fleet_scheds = [ "wfq"; "shinjuku"; "cfs"; "scx-simple"; "wfq"; "shinjuku"; "cfs"; "scx-simple" ]

(* ---------- machine workloads ---------- *)

(* [Setup.build]'s assembly with every scheduler class wrapped in spans:
   the Enoki class as [enoki_c] around a [sched]-wrapped module, CFS as
   [cfs]. *)
let build_wrapped ?tracer ?registry ?profile ~topology kind =
  Schedulers.Hints.register_codecs ();
  Enoki.Lock.set_trace_tap None;
  (match (registry, tracer) with
  | Some reg, Some tr -> Setup.register_tracer_probes reg tr
  | _ -> ());
  let cfs = Timed.klass "cfs" (Kernsim.Cfs.factory ()) in
  let built ~machine ~cfs_policy ~enoki =
    { Setup.machine; policy = 0; cfs_policy; enoki; agent_core = None; registry }
  in
  match kind with
  | Setup.Cfs ->
    built ~machine:(M.create ?registry ?tracer ~topology ~classes:[ cfs ] ()) ~cfs_policy:0 ~enoki:None
  | Setup.Enoki_sched m ->
    let e = Enoki.Enoki_c.create ?tracer ?registry ?profile ~policy:0 (Timed.sched m) in
    let classes = [ Timed.klass "enoki_c" (Enoki.Enoki_c.factory e); cfs ] in
    built ~machine:(M.create ?registry ?tracer ~topology ~classes ()) ~cfs_policy:1 ~enoki:(Some e)
  | Setup.Ghost _ -> invalid_arg "benchmark: ghOSt classes are not wrapped"

(* Everything the simulated machine reports; equal for equal seeds. *)
let machine_digest_parts (b : Setup.built) =
  let m = b.machine in
  let acc = M.metrics m in
  let lat = Kernsim.Accounting.wakeup_latency acc in
  let open Kernsim.Accounting in
  [
    string_of_int (M.events_dispatched m);
    string_of_int (M.now m);
    string_of_int (schedules acc);
    string_of_int (context_switches acc);
    string_of_int (migrations acc);
    string_of_int (pick_violations acc);
    string_of_int (total_busy acc);
    string_of_int (Stats.Histogram.count lat);
    string_of_int (Stats.Histogram.percentile lat 50.0);
    string_of_int (Stats.Histogram.percentile lat 99.0);
  ]
  @
  match b.enoki with
  | Some e -> [ string_of_int (Enoki.Enoki_c.calls e); string_of_int (Enoki.Enoki_c.violations e) ]
  | None -> []

let machine_digest b = hex (machine_digest_parts b)

let enoki_checks (b : Setup.built) =
  match b.enoki with
  | None -> ([], [])
  | Some e ->
    let v = Enoki.Enoki_c.violations e and p = (Enoki.Enoki_c.failover_stats e).panics in
    ( [ ("enoki_c.violations", float_of_int v) ],
      (if v > 0 then [ Printf.sprintf "Enoki-C recorded %d violations" v ] else [])
      @ if p > 0 then [ Printf.sprintf "scheduler module panicked %d times" p ] else [] )

type machine_run = Pipe of int (* messages *) | Schbench of Workloads.Schbench.params

let prepare_machine ~wrapped ~hooks ~sched ~topology run =
  let kind = Setup.of_registry (entry sched) in
  let nr_cpus = Kernsim.Topology.nr_cpus topology in
  let tracer, sanitizer =
    if hooks.tracer then begin
      (* each ring holds a whole run: the busiest cpu of a full-size
         schbench run emits about 9k events *)
      let tr = Trace.Tracer.create ~capacity:16384 ~nr_cpus () in
      let sz = Trace.Sanitizer.create ~nr_cpus () in
      Trace.Sanitizer.attach sz tr;
      (Some tr, Some sz)
    end
    else (None, None)
  in
  let registry = if hooks.metrics then Some (Metrics.Registry.create ~nr_cpus ()) else None in
  let profile = if hooks.profile then Some (Profile.create ()) else None in
  let b =
    if wrapped then build_wrapped ?tracer ?registry ?profile ~topology kind
    else Setup.build ?tracer ?registry ?profile ~topology kind
  in
  fun () ->
    let w0 = Span.minor_words () in
    let t0 = Span.now_ns () in
    let sim, workload_parts, workload_problems =
      match run with
      | Pipe messages ->
        let r = Workloads.Pipe_bench.run b ~messages () in
        ( [ ("sim.us_per_wakeup", r.us_per_wakeup) ],
          [ string_of_int r.wakeups; string_of_int r.elapsed; string_of_bool r.completed ],
          if r.completed then [] else [ "pipe run incomplete" ] )
      | Schbench params ->
        let r = Workloads.Schbench.run b params in
        ( [ ("sim.wakeup_p99_us", float_of_int r.p99 /. 1e3) ],
          [ string_of_int r.p50; string_of_int r.p99; string_of_int r.samples ],
          if r.samples > 0 then [] else [ "schbench recorded no wakeups" ] )
    in
    let t_run = Span.now_ns () in
    let run_words = Span.minor_words () - w0 in
    (* the exports a user of [enoki_sim run --trace --metrics-out] waits
       for are part of the timed region *)
    let trace_out =
      Option.map
        (fun tr ->
          let evs = Trace.Tracer.events tr in
          let t_drain = Span.now_ns () in
          let json = Trace.Export.chrome_json evs in
          (List.length evs, t_drain, json))
        tracer
    in
    let t_trace = Span.now_ns () in
    let prom = Option.map Metrics.Export.prometheus registry in
    let t1 = Span.now_ns () in
    let enoki_host, enoki_problems = enoki_checks b in
    let trace_host, trace_problems =
      match (tracer, sanitizer, trace_out) with
      | Some tr, Some sz, Some (n, t_drain, _) ->
        let dropped = Trace.Tracer.dropped tr and v = List.length (Trace.Sanitizer.violations sz) in
        ( [
            ("trace.events", float_of_int n);
            ("trace.emitted", float_of_int (Trace.Tracer.emitted tr));
            ("trace.dropped", float_of_int dropped);
            ("trace.drain_ns", float_of_int (t_drain - t_run));
            ("trace.export_ns", float_of_int (t_trace - t_drain));
            ("sanitizer.violations", float_of_int v);
          ],
          (if dropped > 0 then [ Printf.sprintf "trace rings dropped %d events" dropped ] else [])
          @ if v > 0 then [ Printf.sprintf "sanitizer reported %d violations" v ] else [] )
      | _ -> ([], [])
    in
    let metrics_host =
      match prom with Some _ -> [ ("metrics.export_ns", float_of_int (t1 - t_trace)) ] | None -> []
    in
    let profile_host =
      match profile with
      | Some p ->
        let total f = float_of_int (List.fold_left (fun a r -> a + f r) 0 (Profile.rows p)) in
        [
          ("profile.calls", total (fun (r : Profile.row) -> r.count));
          ("profile.sim_ns", total (fun (r : Profile.row) -> r.sim_ns));
        ]
      | None -> []
    in
    let artefacts =
      match (trace_out, prom) with
      | None, None -> ""
      | _ ->
        hex
          [
            (match trace_out with Some (_, _, json) -> json | None -> "");
            Option.value prom ~default:"";
          ]
    in
    {
      events = M.events_dispatched b.machine;
      wall_ns = t1 - t0;
      run_ns = t_run - t0;
      run_words;
      sim;
      digest = hex (machine_digest_parts b @ workload_parts);
      artefacts;
      host = enoki_host @ trace_host @ metrics_host @ profile_host;
      problems = workload_problems @ enoki_problems @ trace_problems;
    }

(* ---------- the fleet ---------- *)

let l_step = Span.layer "fleet" "step"

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(min (n - 1) (int_of_float (p /. 100. *. float_of_int n)))

let anatomy_host a =
  let module A = Trace.Anatomy in
  let nt = Array.length (A.tenant_names a) in
  let count = List.fold_left ( + ) 0 (List.init nt (A.tenant_count a)) in
  List.map
    (fun ph ->
      let sum = List.fold_left ( + ) 0 (List.init nt (fun i -> A.tenant_phase_sum a i ph)) in
      ( Printf.sprintf "anatomy.%s_mean_ns" (A.phase_name ph),
        if count = 0 then 0. else float_of_int sum /. float_of_int count ))
    A.phases
  @ [ ("anatomy.max_sum_error", float_of_int (A.max_sum_error a)) ]

let prepare_fleet ~wrapped ?pool ~anatomy ~quick ~seed () =
  let hosts =
    List.map (fun n -> if wrapped then Timed.entry (entry n) else entry n) fleet_scheds
  in
  let f =
    Fleet.create ?pool ~anatomy ~lb:fleet_lb ~warmup:(fleet_warmup ~quick) ~seed ~hosts
      ~tenants:(fleet_tenants ~quick) ()
  in
  fun () ->
    let until = fleet_warmup ~quick + fleet_duration ~quick in
    let steps = ref [] in
    let w0 = Span.minor_words () in
    let t0 = Span.now_ns () in
    (* epoch by epoch, as [Fleet.run] does, timing each step *)
    while Fleet.clock f < until do
      let s0 = Span.now_ns () in
      if wrapped then Span.root l_step (fun () -> Fleet.step f ~limit:until)
      else Fleet.step f ~limit:until;
      steps := (Span.now_ns () - s0) :: !steps
    done;
    let t1 = Span.now_ns () in
    let run_words = Span.minor_words () - w0 in
    let tenants = Fleet.tenant_stats f and hosts = Fleet.host_stats f in
    let offered = Cluster.Traffic.requests_emitted (Fleet.traffic f) in
    let lost =
      List.fold_left (fun a (s : Fleet.tenant_stat) -> a + s.dropped + s.rejected) 0 tenants
    in
    let web =
      match List.find_opt (fun (s : Fleet.tenant_stat) -> s.tenant = "web") tenants with
      | Some s -> s.p99
      | None -> 0
    in
    let step_host =
      let a = Array.of_list !steps in
      Array.sort compare a;
      [
        ("fleet.epochs", float_of_int (Array.length a));
        ("fleet.step_ns_p50", float_of_int (percentile a 50.));
        ("fleet.step_ns_p99", float_of_int (percentile a 99.));
      ]
    in
    let anat = Fleet.anatomy f in
    let quarantined = List.filter (fun (h : Fleet.host_stat) -> h.quarantined) hosts in
    {
      events = Fleet.events_dispatched f;
      wall_ns = t1 - t0;
      run_ns = t1 - t0;
      run_words;
      sim =
        [
          ("sim.req_p99_us", float_of_int web /. 1e3);
          ("sim.drop_ratio", if offered = 0 then 0. else float_of_int lost /. float_of_int offered);
        ];
      digest =
        hex
          (string_of_int (Fleet.events_dispatched f)
          :: string_of_int (Fleet.clock f)
          :: string_of_int offered
          :: List.map
               (fun (s : Fleet.tenant_stat) ->
                 Printf.sprintf "%s %d %d %d %d %d %d" s.tenant s.completed s.dropped s.rejected
                   s.p50 s.p99 s.p999)
               tenants
          @ List.map
              (fun (h : Fleet.host_stat) ->
                Printf.sprintf "%d %s %d %d %b %b" h.host h.sched h.completed h.p99 h.drained
                  h.quarantined)
              hosts);
      artefacts = "";
      host = step_host @ (match anat with Some a -> anatomy_host a | None -> []);
      problems =
        List.map (fun (h : Fleet.host_stat) -> Printf.sprintf "host %d quarantined" h.host) quarantined
        @
        match anat with
        | Some a when Trace.Anatomy.max_sum_error a <> 0 ->
          [ Printf.sprintf "anatomy phases miss e2e by %d ns" (Trace.Anatomy.max_sum_error a) ]
        | _ -> [];
    }

let prepare ?(wrapped = false) ?hooks ?pool ?(anatomy = false) ~quick ~seed w =
  let hooks = Option.value hooks ~default:(default_hooks w) in
  let one_socket = Kernsim.Topology.one_socket and two_socket = Kernsim.Topology.two_socket in
  match w with
  | Pipe_cfs ->
    prepare_machine ~wrapped ~hooks ~sched:"cfs" ~topology:one_socket (Pipe (cfs_messages ~quick))
  | Pipe_wfq ->
    prepare_machine ~wrapped ~hooks ~sched:"wfq" ~topology:one_socket (Pipe (wfq_messages ~quick))
  | Schbench80 ->
    prepare_machine ~wrapped ~hooks ~sched:"wfq" ~topology:two_socket
      (Schbench (schbench_params ~quick ~seed))
  | Fleet8x8 -> prepare_fleet ~wrapped ?pool ~anatomy ~quick ~seed ()

(* The fleet splits its root seed into traffic, then balancer streams;
   the replicas draw the same two. *)
let front_end_ns ~quick ~seed =
  let root = Stats.Prng.create ~seed in
  let traffic_seed = Stats.Prng.next root in
  let lb_seed = Stats.Prng.next root in
  let traffic = Cluster.Traffic.create ~seed:traffic_seed ~start:0 (fleet_tenants ~quick) in
  let until = fleet_warmup ~quick + fleet_duration ~quick and epoch = Kernsim.Time.ms 1 in
  let windows = ref [] in
  let t0 = Span.now_ns () in
  let clock = ref 0 in
  while !clock < until do
    clock := min until (!clock + epoch);
    windows := Cluster.Traffic.next_window traffic ~until:!clock :: !windows
  done;
  let traffic_ns = Span.now_ns () - t0 in
  let requests = List.concat (List.rev !windows) in
  let n = List.length requests in
  let hosts = List.length fleet_scheds in
  let lb = Cluster.Lb.create ~policy:fleet_lb ~hosts ~seed:lb_seed () in
  (* keep about one request per server task in flight, as the fleet does *)
  let inflight = Queue.create () and cap = hosts * 6 in
  let t0 = Span.now_ns () in
  List.iter
    (fun (r : Cluster.Traffic.request) ->
      match Cluster.Lb.pick lb ~key:r.flow_key with
      | Some h ->
        Cluster.Lb.dispatch lb h;
        Queue.push h inflight;
        if Queue.length inflight > cap then Cluster.Lb.complete lb (Queue.pop inflight)
      | None -> ())
    requests;
  let lb_ns = Span.now_ns () - t0 in
  let per x = if n = 0 then 0. else float_of_int x /. float_of_int n in
  (per traffic_ns, per lb_ns)
