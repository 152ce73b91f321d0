(* Tests for lib/cluster: the open-loop traffic engine (deterministic
   replay, window-size independence, bounded live-flow memory under 1M+
   flow churn, diurnal rate integration), the load balancer (consistent
   hashing remap bounds under churn, drained-host avoidance under random
   op sequences, smooth-WRR proportions), and the fleet tier (bit-for-bit
   determinism, rolling-upgrade pause/blackout accounting, chaos-drill
   convergence). *)

module Traffic = Cluster.Traffic
module Lb = Cluster.Lb
module Fleet = Cluster.Fleet

let check = Alcotest.check

let ms = Kernsim.Time.ms

let small_mix ?(connections = 16) ?(load = 20.0) () =
  Traffic.standard_mix ~connections ~flow_len:4.0 ~load_kreqs:load ()

let entries names =
  List.map
    (fun n ->
      match Schedulers.Registry.find n with
      | Some e -> e
      | None -> Alcotest.failf "unknown scheduler %s" n)
    names

(* ---------- traffic engine ---------- *)

(* Same seed must give the same stream whether drained in one window or in
   many small ones (the slot-pool design's epoch-independence), and a
   different seed must give a different stream. *)
let test_traffic_deterministic_window_independent () =
  let mk seed = Traffic.create ~seed ~start:0 (small_mix ()) in
  let big = Traffic.next_window (mk 42) ~until:(ms 50) in
  let stepped =
    let tr = mk 42 in
    let acc = ref [] in
    for i = 1 to 50 do
      acc := List.rev_append (Traffic.next_window tr ~until:(ms i)) !acc
    done;
    List.rev !acc
  in
  check Alcotest.int "same request count" (List.length big) (List.length stepped);
  check Alcotest.bool "streams identical across window sizes" true (big = stepped);
  let other = Traffic.next_window (mk 43) ~until:(ms 50) in
  check Alcotest.bool "different seed differs" true (big <> other)

(* Churn through over a million flows and confirm the live-flow count
   never moves off the slot-pool size: memory is bounded by construction,
   independent of flow count. *)
let test_bounded_live_flows_under_churn () =
  let mix = Traffic.standard_mix ~connections:64 ~flow_len:1.2 ~load_kreqs:600.0 () in
  let pool = List.fold_left (fun n (tn : Traffic.tenant) -> n + tn.connections) 0 mix in
  let tr = Traffic.create ~seed:9 ~start:0 mix in
  check Alcotest.int "live flows = slot pool at start" pool (Traffic.live_flows tr);
  let t = ref 0 in
  while Traffic.flows_completed tr < 1_000_000 do
    t := !t + ms 100;
    ignore (Traffic.next_window tr ~until:!t);
    if Traffic.live_flows tr <> pool then
      Alcotest.failf "live flows grew to %d (pool %d) at %d completed flows"
        (Traffic.live_flows tr) pool (Traffic.flows_completed tr)
  done;
  check Alcotest.bool "churned 1M+ flows" true (Traffic.flows_completed tr >= 1_000_000);
  check Alcotest.bool "emitted at least one request per flow" true
    (Traffic.requests_emitted tr >= Traffic.flows_completed tr)

(* A tenant that can never emit — a Burst whose phases both have rate 0,
   or the whole standard mix at zero load — yields no requests and returns:
   the Burst arrival clock used to step across phase boundaries forever. *)
let test_silent_tenants_terminate () =
  let silent =
    {
      Traffic.name = "silent";
      arrival =
        Traffic.Burst { base_rate = 0.0; burst_rate = 0.0; mean_on = ms 1; mean_off = ms 1 };
      service = Stats.Dist.Private.constant 1_000.0;
      flow_len_mean = 2.0;
      connections = 4;
    }
  in
  let tr = Traffic.create ~seed:3 ~start:0 [ silent ] in
  check Alcotest.int "silent burst tenant" 0 (List.length (Traffic.next_window tr ~until:(ms 500)));
  let tr = Traffic.create ~seed:3 ~start:0 (Traffic.standard_mix ~load_kreqs:0.0 ()) in
  check Alcotest.int "zero-load standard mix" 0
    (List.length (Traffic.next_window tr ~until:(ms 500)));
  (* one phase silent is still a live tenant *)
  let half = { silent with arrival = Traffic.Burst { base_rate = 0.0; burst_rate = 50_000.0; mean_on = ms 1; mean_off = ms 1 } } in
  let tr = Traffic.create ~seed:3 ~start:0 [ half ] in
  check Alcotest.bool "burst-only tenant emits" true (Traffic.next_window tr ~until:(ms 50) <> [])

(* Requests leave the engine as five ints through one callback, so
   draining the standard mix (Poisson, diurnal thinning, bursts; uniform,
   log-normal and Pareto services) allocates nothing per request once the
   callback exists.  The count starts after a first window. *)
let test_traffic_callback_allocates_nothing () =
  let tr = Traffic.create ~seed:11 ~start:0 (small_mix ~connections:32 ~load:200.0 ()) in
  let n = ref 0 and sum = ref 0 in
  let emit ~req_id ~tenant ~flow_key ~arrived ~service =
    incr n;
    sum := !sum + req_id + tenant + flow_key + arrived + service
  in
  Traffic.iter_window tr ~until:(ms 1) emit;
  let from = !n and t = ref (ms 1) in
  (* the reading's own cost *)
  let empty =
    let a = Profile.allocated_bytes () in
    Profile.allocated_bytes () -. a
  in
  let before = Profile.allocated_bytes () in
  while !n - from < 10_000 do
    t := !t + ms 1;
    Traffic.iter_window tr ~until:!t emit
  done;
  let bytes = Profile.allocated_bytes () -. before -. empty in
  ignore (Sys.opaque_identity !sum);
  check (Alcotest.float 0.0) "bytes over 10k requests" 0.0 bytes;
  (* the list view is the same stream *)
  let a = Traffic.create ~seed:11 ~start:0 (small_mix ()) in
  let b = Traffic.create ~seed:11 ~start:0 (small_mix ()) in
  let via_cb = ref [] in
  Traffic.iter_window a ~until:(ms 20) (fun ~req_id ~tenant ~flow_key ~arrived ~service ->
      via_cb := { Traffic.req_id; tenant; flow_key; arrived; service } :: !via_cb);
  check Alcotest.bool "next_window = callback stream" true
    (List.rev !via_cb = Traffic.next_window b ~until:(ms 20))

(* The thinned diurnal process must integrate to its mean rate over whole
   periods (statistical: ~5000 expected arrivals, so 10% is > 4 sigma). *)
let prop_diurnal_integrates seed =
  let period = ms 20 in
  let tenant =
    {
      Traffic.name = "d";
      arrival = Traffic.Diurnal { mean_rate = 50_000.0; amplitude = 0.7; period };
      service = Stats.Dist.Private.constant 1_000.0;
      flow_len_mean = 4.0;
      connections = 64;
    }
  in
  let tr = Traffic.create ~seed ~start:0 [ tenant ] in
  let horizon = 5 * period in
  let n = List.length (Traffic.next_window tr ~until:horizon) in
  let expected = 50_000.0 *. (float_of_int horizon /. 1e9) in
  let err = Float.abs ((float_of_int n /. expected) -. 1.0) in
  if err > 0.10 then
    QCheck.Test.fail_reportf "diurnal drifted %.1f%% off mean rate (%d vs %.0f, seed %d)"
      (100.0 *. err) n expected seed
  else true

(* A test-local copy of the engine's old window: every slot's arrivals
   below [until] are gathered, then sorted by (arrived, tenant, slot), and
   dense request ids are assigned after the sort.  Slot streams are built
   exactly as the engine builds them (same seed splits, same draws), so the
   engine's merged window must equal this one request for request. *)
module Sorted_reference = struct
  type slot = {
    rng : Stats.Prng.t;
    mutable next_at : int;
    mutable remaining : int;
    mutable flow_seq : int;
    mutable on : bool;
    mutable phase_until : int;
  }

  let exp_gap rng ~rate_per_sec =
    if rate_per_sec <= 0.0 then max_int / 4
    else
      let mean_ns = 1e9 /. rate_per_sec in
      max 1 (int_of_float (-.log (1.0 -. Stats.Prng.float rng) *. mean_ns))

  let flow_len rng ~mean =
    if mean <= 1.0 then 1
    else 1 + int_of_float (-.log (1.0 -. Stats.Prng.float rng) *. (mean -. 1.0))

  let rec next_arrival arrival ~conns slot ~from =
    let c = float_of_int conns in
    match arrival with
    | Traffic.Poisson { rate } -> from + exp_gap slot.rng ~rate_per_sec:(rate /. c)
    | Traffic.Diurnal { mean_rate; amplitude; period = _ } ->
      let peak = mean_rate *. (1.0 +. abs_float amplitude) /. c in
      let cand = from + exp_gap slot.rng ~rate_per_sec:peak in
      if Stats.Prng.float slot.rng *. peak <= Traffic.Private.rate_at arrival cand /. c then cand
      else next_arrival arrival ~conns slot ~from:cand
    | Traffic.Burst { base_rate; burst_rate; mean_on; mean_off } ->
      let cand =
        from + exp_gap slot.rng ~rate_per_sec:((if slot.on then burst_rate else base_rate) /. c)
      in
      if cand <= slot.phase_until then cand
      else begin
        let resume = slot.phase_until in
        let dwell = if slot.on then mean_off else mean_on in
        slot.on <- not slot.on;
        slot.phase_until <-
          resume + exp_gap slot.rng ~rate_per_sec:(1e9 /. float_of_int (max 1 dwell));
        next_arrival arrival ~conns slot ~from:resume
      end

  type t = { tenants : Traffic.tenant array; slots : slot array array; mutable emitted : int }

  let open_flow (tn : Traffic.tenant) slot =
    slot.flow_seq <- slot.flow_seq + 1;
    slot.remaining <- flow_len slot.rng ~mean:tn.flow_len_mean

  let create ~seed tenants =
    let root = Stats.Prng.create ~seed in
    let tenants = Array.of_list tenants in
    let slots =
      Array.map
        (fun (tn : Traffic.tenant) ->
          let tenant_rng = Stats.Prng.split root in
          Array.init tn.connections (fun _ ->
              let rng = Stats.Prng.split tenant_rng in
              let slot =
                { rng; next_at = 0; remaining = 0; flow_seq = -1; on = false; phase_until = 0 }
              in
              (match tn.arrival with
              | Traffic.Burst { mean_off; _ } ->
                slot.phase_until <- exp_gap rng ~rate_per_sec:(1e9 /. float_of_int (max 1 mean_off))
              | _ -> ());
              open_flow tn slot;
              slot.next_at <- next_arrival tn.arrival ~conns:tn.connections slot ~from:0;
              slot))
        tenants
    in
    { tenants; slots; emitted = 0 }

  let next_window t ~until =
    let acc = ref [] in
    Array.iteri
      (fun ti (tn : Traffic.tenant) ->
        Array.iteri
          (fun si slot ->
            while slot.next_at < until do
              let service = max 1 (int_of_float (Stats.Dist.sample tn.service slot.rng)) in
              let flow_key = (ti lsl 54) lor (si lsl 34) lor (slot.flow_seq land 0x3_FFFF_FFFF) in
              let req =
                { Traffic.req_id = 0; tenant = ti; flow_key; arrived = slot.next_at; service }
              in
              acc := (req.arrived, ti, si, req) :: !acc;
              slot.remaining <- slot.remaining - 1;
              if slot.remaining <= 0 then open_flow tn slot;
              slot.next_at <- next_arrival tn.arrival ~conns:tn.connections slot ~from:slot.next_at
            done)
          t.slots.(ti))
      t.tenants;
    let sorted =
      List.sort (fun (a, ta, sa, _) (b, tb, sb, _) -> compare (a, ta, sa) (b, tb, sb)) !acc
    in
    let base = t.emitted in
    t.emitted <- base + List.length sorted;
    List.mapi (fun i (_, _, _, r) -> { r with Traffic.req_id = base + i }) sorted
end

(* A random mix (1-4 tenants of every arrival kind, 1-64 connections
   each) drained over random window boundaries: the engine's k-way merge
   must emit exactly the sorted reference's windows. *)
let prop_merge_equals_sort seed =
  let rng = Stats.Prng.create ~seed in
  let pick l = List.nth l (Stats.Prng.int rng (List.length l)) in
  let rate () = 2_000.0 +. (Stats.Prng.float rng *. 200_000.0) in
  let tenant i =
    let arrival =
      match Stats.Prng.int rng 3 with
      | 0 -> Traffic.Poisson { rate = rate () }
      | 1 ->
        Traffic.Diurnal
          {
            mean_rate = rate ();
            amplitude = Stats.Prng.float rng;
            period = ms (1 + Stats.Prng.int rng 20);
          }
      | _ ->
        let base = rate () in
        Traffic.Burst
          {
            base_rate = base;
            burst_rate = 3.0 *. base;
            mean_on = Kernsim.Time.us (50 + Stats.Prng.int rng 2_000);
            mean_off = Kernsim.Time.us (50 + Stats.Prng.int rng 5_000);
          }
    in
    {
      Traffic.name = Printf.sprintf "t%d" i;
      arrival;
      service =
        pick [ Stats.Dist.Private.constant 1_000.0; Stats.Dist.uniform ~lo:500.0 ~hi:20_000.0 ];
      flow_len_mean = pick [ 1.0; 1.5; 4.0; 8.0 ];
      connections = 1 + Stats.Prng.int rng 64;
    }
  in
  let mix = List.init (1 + Stats.Prng.int rng 4) tenant in
  let engine = Traffic.create ~seed ~start:0 mix in
  let reference = Sorted_reference.create ~seed mix in
  let until = ref 0 in
  for w = 1 to 1 + Stats.Prng.int rng 40 do
    until := !until + Stats.Prng.int rng (Kernsim.Time.us 800);
    let got = Traffic.next_window engine ~until:!until in
    let want = Sorted_reference.next_window reference ~until:!until in
    if got <> want then
      QCheck.Test.fail_reportf "window %d (until %d) differs: %d vs %d requests (seed %d)" w !until
        (List.length got) (List.length want) seed
  done;
  true

(* ---------- load balancer ---------- *)

(* Draining one host must only remap that host's keys (the classic
   consistent-hashing bound), and re-admitting it must restore the
   original placement exactly. *)
let prop_consistent_hash_remap seed =
  let hosts = 8 in
  let lb = Lb.create ~policy:Lb.Consistent_hash ~hosts ~seed () in
  let keys = List.init 2_000 (fun i -> (i * 0x9E37) lxor (seed * 7919)) in
  let place () = List.map (fun k -> (k, Option.get (Lb.pick lb ~key:k))) keys in
  let before = place () in
  let victim = seed mod hosts in
  Lb.drain lb victim;
  let after = place () in
  List.iter2
    (fun (k, b) (_, a) ->
      if b <> victim && a <> b then
        QCheck.Test.fail_reportf "key %d moved %d -> %d though only host %d drained (seed %d)" k
          b a victim seed;
      if a = victim then
        QCheck.Test.fail_reportf "key %d still on drained host %d (seed %d)" k victim seed)
    before after;
  Lb.admit lb victim;
  if place () <> before then
    QCheck.Test.fail_reportf "placement not restored after re-admit (seed %d)" seed
  else true

(* Random op soup over a 4-host balancer: pick must never return a drained
   host, and must return None exactly when all hosts are drained. *)
let prop_pick_never_drained (policy_ix, ops) =
  let hosts = 4 in
  let policy =
    List.nth [ Lb.Round_robin; Lb.Least_outstanding; Lb.Weighted; Lb.Consistent_hash ]
      (policy_ix mod 4)
  in
  let lb = Lb.create ~policy ~hosts ~seed:11 () in
  let all_drained () = List.for_all (Lb.drained lb) (List.init hosts Fun.id) in
  List.iter
    (fun (op, arg) ->
      let h = arg mod hosts in
      match op mod 4 with
      | 0 -> Lb.drain lb h
      | 1 -> Lb.admit lb h
      | 2 -> if Lb.Private.outstanding lb h > 0 then Lb.complete lb h
      | _ -> (
        match Lb.pick lb ~key:arg with
        | None ->
          if not (all_drained ()) then
            QCheck.Test.fail_reportf "%s: pick returned None with hosts up"
              (Lb.policy_name policy)
        | Some h ->
          if Lb.drained lb h then
            QCheck.Test.fail_reportf "%s: picked drained host %d" (Lb.policy_name policy) h;
          Lb.dispatch lb h))
    ops;
  true

(* Smooth WRR serves hosts in exact proportion to their weights over any
   whole number of cycles. *)
let test_weighted_exact_proportions () =
  let lb = Lb.create ~weights:[| 6; 3; 1 |] ~policy:Lb.Weighted ~hosts:3 ~seed:1 () in
  let counts = Array.make 3 0 in
  for i = 1 to 1_000 do
    let h = Option.get (Lb.pick lb ~key:i) in
    counts.(h) <- counts.(h) + 1
  done;
  check Alcotest.(array int) "6:3:1 over 100 cycles" [| 600; 300; 100 |] counts

(* ---------- fleet tier ---------- *)

let small_fleet ?upgrade ?chaos ~seed () =
  Fleet.create ?upgrade ?chaos ~workers:4 ~warmup:(ms 50) ~seed
    ~hosts:(entries [ "wfq"; "cfs" ])
    ~tenants:(small_mix ~connections:32 ~load:40.0 ())
    ()

let test_fleet_deterministic () =
  let run seed =
    let f = small_fleet ~seed () in
    Fleet.run f ~until:(ms 200);
    (Fleet.tenant_stats f, Fleet.host_stats f, Fleet.clock f)
  in
  check Alcotest.bool "same seed, bit-identical results" true (run 5 = run 5);
  check Alcotest.bool "different seed differs" true (run 5 <> run 6)

(* a non-positive epoch could never advance the clock: [step] would spin *)
let test_fleet_rejects_zero_epoch () =
  check Alcotest.bool "epoch 0 rejected" true
    (try
       ignore
         (Fleet.create ~epoch:0 ~seed:1
            ~hosts:(entries [ "wfq" ])
            ~tenants:(small_mix ~connections:32 ~load:40.0 ())
            ());
       false
     with Invalid_argument _ -> true)

(* Every input [Fleet.create] cannot build a working fleet from is
   rejected up front, under the "Fleet.create:" prefix the CLI turns into
   a usage error. *)
let test_fleet_rejects_unusable_inputs () =
  let create ?(workers = 4) ?(queue_cap = 64) ?(connections = 8) ?(flow_len = 4.0) ?upgrade
      ?(anatomy_top = 8) () =
    ignore
      (Fleet.create ~workers ~queue_cap ?upgrade ~anatomy:true ~anatomy_top ~seed:1
         ~hosts:(entries [ "wfq" ])
         ~tenants:(Traffic.standard_mix ~connections ~flow_len ~load_kreqs:20.0 ())
         ())
  in
  Alcotest.check_raises "no workers" (Invalid_argument "Fleet.create: workers must be positive")
    (fun () -> create ~workers:0 ());
  Alcotest.check_raises "no queue" (Invalid_argument "Fleet.create: queue_cap must be positive")
    (fun () -> create ~queue_cap:0 ());
  Alcotest.check_raises "no connections"
    (Invalid_argument "Fleet.create: connections must be positive") (fun () ->
      create ~connections:0 ());
  List.iter
    (fun flow_len ->
      Alcotest.check_raises "flow length"
        (Invalid_argument "Fleet.create: flow length must be a finite mean >= 1") (fun () ->
          create ~flow_len ()))
    [ 0.0; -2.0; Float.nan; Float.infinity ];
  List.iter
    (fun (at, stagger) ->
      Alcotest.check_raises "upgrade schedule"
        (Invalid_argument "Fleet.create: upgrade time and stagger must be non-negative")
        (fun () -> create ~upgrade:{ Fleet.at; stagger } ()))
    [ (-10, 0); (ms 10, -ms 10) ];
  Alcotest.check_raises "no exemplars"
    (Invalid_argument "Fleet.create: anatomy_top must be positive") (fun () ->
      create ~anatomy_top:0 ())

let test_rolling_upgrade_pause_and_blackout () =
  let f =
    (* both hosts need an Enoki module: CFS hosts have nothing to upgrade *)
    Fleet.create
      ~upgrade:{ Fleet.at = ms 120; stagger = ms 20 }
      ~workers:4 ~warmup:(ms 50) ~seed:3
      ~hosts:(entries [ "wfq"; "shinjuku" ])
      ~tenants:(small_mix ~connections:32 ~load:40.0 ())
      ()
  in
  Fleet.run f ~until:(ms 300);
  let ups = Fleet.upgrades f in
  check Alcotest.int "every host upgraded" 2 (List.length ups);
  check Alcotest.int "no upgrade failures" 0 (Fleet.upgrade_failures f);
  List.iter
    (fun (h, pause) ->
      if pause <= 0 then Alcotest.failf "host %d reported a zero-length upgrade pause" h)
    ups;
  check Alcotest.bool "blackout window saw completions under load" true
    (Stats.Histogram.count (Fleet.blackout f) > 0);
  let op_hosts op =
    List.filter_map (fun (_, h, o) -> if o = op then Some h else None) (Fleet.oplog f)
  in
  check Alcotest.(list int) "oplog: staggered host order" [ 0; 1 ] (op_hosts "upgrade")

(* A steady fleet's run allocates ~5.2 B per simulated event here: per
   request only the worker's [Compute] action (~3 B/event), per epoch the
   barrier's bookkeeping, and the hosts' machines' own ~1 B/event.  Boxed
   requests, per-request queue cells and a list of effect records read
   ~74, and two fresh lock contexts per host per epoch ~6.7; one more
   16-B box per request would read ~8.3, over the ceiling.  The columns
   grow during a first run. *)
let fleet_bytes_per_event_ceiling = 8.

let test_fleet_steady_bytes_per_event () =
  let f =
    Fleet.create ~workers:4 ~warmup:(ms 20) ~seed:5
      ~hosts:(entries [ "wfq"; "cfs"; "shinjuku"; "scx-simple" ])
      ~tenants:(small_mix ~connections:32 ~load:40.0 ())
      ()
  in
  Fleet.run f ~until:(ms 50);
  let e0 = Fleet.events_dispatched f and before = Profile.allocated_bytes () in
  Fleet.run f ~until:(ms 250);
  let bytes = Profile.allocated_bytes () -. before in
  let events = Fleet.events_dispatched f - e0 in
  let per_event = bytes /. float_of_int events in
  if events < 10_000 then Alcotest.failf "only %d events: not a steady run" events;
  if per_event > fleet_bytes_per_event_ceiling then
    Alcotest.failf "%.1f B/event over %d events (ceiling %.0f)" per_event events
      fleet_bytes_per_event_ceiling

let test_chaos_drill_converges () =
  let f =
    Fleet.create
      ~chaos:{ Fleet.victim = 1; after_calls = 2_000; recovery = ms 5 }
      ~workers:4 ~warmup:(ms 50) ~seed:7
      ~hosts:(entries [ "wfq"; "wfq"; "wfq"; "wfq" ])
      ~tenants:(small_mix ~connections:32 ~load:40.0 ())
      ()
  in
  Fleet.run f ~until:(ms 300);
  let ops = List.map (fun (_, h, op) -> (h, op)) (Fleet.oplog f) in
  check Alcotest.bool "victim drained" true (List.mem (1, "drain") ops);
  check Alcotest.bool "victim re-admitted" true (List.mem (1, "admit") ops);
  check Alcotest.bool "drill converged" true (Fleet.converged f);
  check Alcotest.bool "victim sanitizer clean" true (Fleet.sanitizer_ok f);
  let victim = List.nth (Fleet.host_stats f) 1 in
  check Alcotest.bool "victim failed over (module quarantined)" true victim.Fleet.quarantined;
  check Alcotest.bool "victim back in rotation" false victim.Fleet.drained

let lb_policies = [ Lb.Round_robin; Lb.Least_outstanding; Lb.Weighted; Lb.Consistent_hash ]

(* ---------- parallel fleet execution ---------- *)

(* The whole observable surface of a run, down to exported bytes: if any
   host-shared effect were applied off the coordinating domain, or merged
   in a claim-order-dependent order, one of these components would drift. *)
let fleet_fingerprint f =
  let anat =
    match Fleet.anatomy f with
    | None -> ""
    | Some a ->
      Printf.sprintf "%d|%d|%s"
        (List.length (Trace.Anatomy.exemplars a))
        (Trace.Anatomy.max_sum_error a)
        (Trace.Anatomy.Private.chrome_json a)
  in
  ( Fleet.tenant_stats f,
    Fleet.host_stats f,
    Fleet.clock f,
    Fleet.oplog f,
    Fleet.events_dispatched f,
    Metrics.Export.prometheus (Fleet.registry f),
    anat )

let par_scheds = [| "wfq"; "cfs"; "shinjuku"; "scx-simple" |]

(* The hard contract from fleet.mli: a run is byte-identical for any pool
   size.  Random (seed, host mix, lb policy, k in 1..4), sequential vs a
   k-domain pool, compared on the full fingerprint plus the record log —
   the strictest equality the stack offers (every scheduler call of host 0
   in order, so a lock id or trace tap leaking across domains shows up as
   a byte diff). *)
let prop_fleet_parallel_deterministic (seed, nhosts_r, lb_ix, k_r) =
  let nhosts = 2 + (nhosts_r mod 4) in
  let k = 1 + (k_r mod 4) in
  let lb = List.nth lb_policies (lb_ix mod List.length lb_policies) in
  let hosts =
    List.init nhosts (fun i ->
        par_scheds.((seed + i) mod Array.length par_scheds))
  in
  let run pool =
    let record = Enoki.Record.create () in
    let f =
      Fleet.create ?pool ~workers:4 ~warmup:(ms 30) ~lb ~anatomy:true ~record ~seed
        ~hosts:(entries hosts)
        ~tenants:(small_mix ~connections:16 ~load:30.0 ())
        ()
    in
    Fleet.run f ~until:(ms 150);
    (fleet_fingerprint f, Enoki.Record.contents record)
  in
  let seq = run None in
  let pool = Ds.Domain_pool.create ~domains:k () in
  let par = Fun.protect (fun () -> run (Some pool)) ~finally:(fun () -> Ds.Domain_pool.shutdown pool) in
  if fst seq <> fst par then
    QCheck.Test.fail_reportf "fleet diverged at -j %d (seed %d, hosts %s, lb %s)" k seed
      (String.concat "," hosts) (Lb.policy_name lb)
  else if snd seq <> snd par then
    QCheck.Test.fail_reportf "record log not byte-identical at -j %d (seed %d)" k seed
  else true

(* Every packed effect kind replays through the barrier under a pool:
   rolling upgrades (oplog and upgraded effects), a two-deep host queue
   (drops), anatomy (enqueue, take and done) and completions, sequential
   vs -j 2, on the fingerprint and host 0's record log. *)
let test_every_effect_kind_parallel_identical () =
  let run pool =
    let record = Enoki.Record.create () in
    let f =
      Fleet.create ?pool
        ~upgrade:{ Fleet.at = ms 60; stagger = ms 15 }
        ~queue_cap:2 ~workers:2 ~warmup:(ms 20) ~anatomy:true ~record ~seed:13
        ~hosts:(entries [ "wfq"; "shinjuku"; "scx-simple" ])
        ~tenants:(small_mix ~connections:32 ~load:120.0 ())
        ()
    in
    Fleet.run f ~until:(ms 150);
    (f, fleet_fingerprint f, Enoki.Record.contents record)
  in
  let f, seq_fp, seq_log = run None in
  let pool = Ds.Domain_pool.create ~domains:2 () in
  let _, par_fp, par_log =
    Fun.protect (fun () -> run (Some pool)) ~finally:(fun () -> Ds.Domain_pool.shutdown pool)
  in
  let dropped = List.fold_left (fun n (s : Fleet.tenant_stat) -> n + s.dropped) 0 (Fleet.tenant_stats f) in
  let completed =
    List.fold_left (fun n (s : Fleet.tenant_stat) -> n + s.completed) 0 (Fleet.tenant_stats f)
  in
  check Alcotest.bool "drops replayed" true (dropped > 0);
  check Alcotest.bool "completions replayed" true (completed > 0);
  check Alcotest.int "every host upgraded" 3 (List.length (Fleet.upgrades f));
  check Alcotest.int "upgrade ops logged" 3
    (List.length (List.filter (fun (_, _, op) -> op = "upgrade") (Fleet.oplog f)));
  (match Fleet.anatomy f with
  | Some a -> check Alcotest.bool "anatomy completions" true (Trace.Anatomy.completions a > 0)
  | None -> Alcotest.fail "anatomy off");
  check Alcotest.bool "fingerprint identical sequential vs -j 2" true (seq_fp = par_fp);
  check Alcotest.bool "record log byte-identical sequential vs -j 2" true (seq_log = par_log)

(* Chaos drills are the most side-effectful path (panic injection, drain /
   admit oplog writes, sanitizer over the victim's trace): the drill must
   converge identically with hosts advancing on separate domains. *)
let test_chaos_drill_parallel_identical () =
  let run pool =
    let f =
      Fleet.create ?pool
        ~chaos:{ Fleet.victim = 1; after_calls = 2_000; recovery = ms 5 }
        ~workers:4 ~warmup:(ms 50) ~seed:7
        ~hosts:(entries [ "wfq"; "wfq"; "wfq"; "wfq" ])
        ~tenants:(small_mix ~connections:32 ~load:40.0 ())
        ()
    in
    Fleet.run f ~until:(ms 300);
    (Fleet.converged f, Fleet.sanitizer_ok f, fleet_fingerprint f)
  in
  let seq = run None in
  let pool = Ds.Domain_pool.create ~domains:3 () in
  let par = Fun.protect (fun () -> run (Some pool)) ~finally:(fun () -> Ds.Domain_pool.shutdown pool) in
  let converged, sanitizer, _ = par in
  check Alcotest.bool "drill converged under -j 3" true converged;
  check Alcotest.bool "victim sanitizer clean under -j 3" true sanitizer;
  check Alcotest.bool "chaos run byte-identical sequential vs -j 3" true (seq = par)

(* ---------- request anatomy ---------- *)

module Anatomy = Trace.Anatomy

(* Run a small fleet with anatomy on, asserting on every completion that
   the six phase durations are non-negative and sum exactly — not within
   epsilon — to the measured end-to-end latency. *)
let assert_exact_sums ?(lb = Lb.Least_outstanding) ~seed ~hosts () =
  let f =
    Fleet.create ~workers:4 ~warmup:(ms 50) ~lb ~anatomy:true ~seed ~hosts:(entries hosts)
      ~tenants:(small_mix ~connections:16 ~load:30.0 ())
      ()
  in
  let a = Option.get (Fleet.anatomy f) in
  let seen = ref 0 in
  Anatomy.Private.on_complete a (fun c ->
      incr seen;
      let sum = Array.fold_left ( + ) 0 c.Anatomy.durations in
      if sum <> Anatomy.e2e c then
        Alcotest.failf "req %d: phases sum to %d, e2e is %d (%s)" c.Anatomy.req sum
          (Anatomy.e2e c) (String.concat "," hosts);
      Array.iteri
        (fun i d ->
          if d < 0 then
            Alcotest.failf "req %d: negative %s (%d)" c.Anatomy.req
              (Anatomy.phase_name (List.nth Anatomy.phases i))
              d)
        c.Anatomy.durations);
  Fleet.run f ~until:(ms 150);
  if !seen = 0 then Alcotest.fail "anatomy saw no completions";
  check Alcotest.int "exact-sum error counter" 0 (Anatomy.max_sum_error a);
  check Alcotest.int "no orphaned observations" 0 (Anatomy.orphans a);
  f

(* The decomposition must hold under every scheduler a host can run, not
   just the ones the fleet suite happens to use — wakeup clamping and the
   preemption/migration split are where a new policy would break it. *)
let test_anatomy_sums_every_scheduler () =
  List.iter
    (fun (e : Schedulers.Registry.entry) ->
      (* arbiters schedule other schedulers, not worker tasks *)
      if not e.Schedulers.Registry.arbiter then
        ignore (assert_exact_sums ~seed:5 ~hosts:[ e.Schedulers.Registry.name ] ()))
    Schedulers.Registry.all

let test_anatomy_sums_every_lb () =
  List.iter (fun lb -> ignore (assert_exact_sums ~lb ~seed:6 ~hosts:[ "wfq"; "cfs" ] ())) lb_policies

let prop_anatomy_sums (sched_ix, lb_ix, seed) =
  let workers =
    List.filter (fun e -> not e.Schedulers.Registry.arbiter) Schedulers.Registry.all
  in
  let e = List.nth workers (sched_ix mod List.length workers) in
  let lb = List.nth lb_policies (lb_ix mod List.length lb_policies) in
  ignore (assert_exact_sums ~lb ~seed ~hosts:[ e.Schedulers.Registry.name; "cfs" ] ());
  true

(* Anatomy must be a pure observer: with it on or off, the same seed has
   to produce byte-identical Enoki record logs (the strictest equality the
   stack offers — every scheduler call in order) and identical stats. *)
let test_anatomy_zero_perturbation () =
  let run anatomy =
    let record = Enoki.Record.create () in
    let f =
      Fleet.create ~workers:4 ~warmup:(ms 50) ~anatomy ~record ~seed:9
        ~hosts:(entries [ "wfq"; "cfs" ])
        ~tenants:(small_mix ~connections:16 ~load:30.0 ())
        ()
    in
    Fleet.run f ~until:(ms 200);
    (Enoki.Record.contents record, Fleet.tenant_stats f, Fleet.clock f)
  in
  let log_on, stats_on, clock_on = run true in
  let log_off, stats_off, clock_off = run false in
  check Alcotest.bool "record captured scheduler calls" true (String.length log_off > 0);
  check Alcotest.bool "record logs byte-identical" true (log_on = log_off);
  check Alcotest.bool "tenant stats identical" true (stats_on = stats_off);
  check Alcotest.int "clocks identical" clock_off clock_on

let test_anatomy_exemplars_deterministic () =
  let run () =
    let f =
      Fleet.create ~workers:4 ~warmup:(ms 50) ~anatomy:true ~anatomy_top:4 ~seed:11
        ~hosts:(entries [ "wfq"; "cfs" ])
        ~tenants:(small_mix ~connections:16 ~load:30.0 ())
        ()
    in
    Fleet.run f ~until:(ms 200);
    Option.get (Fleet.anatomy f)
  in
  let a = run () in
  let key (c : Anatomy.completion) = (c.Anatomy.req, Anatomy.e2e c, c.Anatomy.durations) in
  check Alcotest.bool "same seed, same exemplars" true
    (List.map key (Anatomy.exemplars a) = List.map key (Anatomy.exemplars (run ())));
  let es = Anatomy.exemplars a in
  check Alcotest.bool "ring bounded by top_k" true (List.length es <= 4 && es <> []);
  let rec sorted = function
    | a :: (b :: _ as rest) -> Anatomy.e2e a >= Anatomy.e2e b && sorted rest
    | _ -> true
  in
  check Alcotest.bool "exemplars worst-first" true (sorted es);
  let json = Anatomy.Private.chrome_json a in
  check Alcotest.bool "chrome flow export non-empty" true (String.length json > 2);
  (* every exemplar's flow arrows ride on its request-id *)
  List.iter
    (fun (c : Anatomy.completion) ->
      let needle = Printf.sprintf "\"id\":%d" c.Anatomy.req in
      let found =
        let n = String.length needle and l = String.length json in
        let rec scan i = i + n <= l && (String.sub json i n = needle || scan (i + 1)) in
        scan 0
      in
      if not found then Alcotest.failf "exemplar req %d missing from chrome export" c.Anatomy.req)
    es

(* ---------- seed plumbing (the Setup.workload_seed satellite) ---------- *)

let test_workload_seed_splitter () =
  check Alcotest.int "canonical schbench seed" 42 (Workloads.Setup.workload_seed "schbench");
  check Alcotest.int "canonical rocksdb seed" 7 (Workloads.Setup.workload_seed "rocksdb");
  check Alcotest.int "canonical memcached seed" 11 (Workloads.Setup.workload_seed "memcached");
  let a = Workloads.Setup.workload_seed ~seed:123 "schbench" in
  check Alcotest.int "stable for (root, name)" a
    (Workloads.Setup.workload_seed ~seed:123 "schbench");
  check Alcotest.bool "names decorrelate" true
    (a <> Workloads.Setup.workload_seed ~seed:123 "rocksdb");
  check Alcotest.bool "roots decorrelate" true
    (a <> Workloads.Setup.workload_seed ~seed:124 "schbench");
  check Alcotest.bool "non-negative" true (a >= 0)

(* ---------- suite ---------- *)

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let () =
  Alcotest.run "cluster"
    [
      ( "traffic",
        [
          Alcotest.test_case "deterministic and window-independent" `Quick
            test_traffic_deterministic_window_independent;
          Alcotest.test_case "live flows bounded under 1M+ flow churn" `Slow
            test_bounded_live_flows_under_churn;
          qtest ~count:10 "diurnal integrates to mean rate" QCheck.small_nat
            prop_diurnal_integrates;
          qtest ~count:60 "merged window equals gather-and-sort" QCheck.small_nat
            prop_merge_equals_sort;
          Alcotest.test_case "silent tenants emit nothing and return" `Quick
            test_silent_tenants_terminate;
          Alcotest.test_case "callback drain allocates nothing" `Quick
            test_traffic_callback_allocates_nothing;
        ] );
      ( "lb",
        [
          qtest ~count:25 "consistent hash: churn remaps only the victim" QCheck.small_nat
            prop_consistent_hash_remap;
          qtest ~count:100 "pick never returns a drained host"
            QCheck.(pair small_nat (small_list (pair small_nat small_nat)))
            prop_pick_never_drained;
          Alcotest.test_case "smooth WRR exact proportions" `Quick
            test_weighted_exact_proportions;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "bit-for-bit deterministic from seed" `Quick
            test_fleet_deterministic;
          Alcotest.test_case "zero epoch rejected" `Quick test_fleet_rejects_zero_epoch;
          Alcotest.test_case "workers, queue cap, connections rejected" `Quick
            test_fleet_rejects_unusable_inputs;
          Alcotest.test_case "rolling upgrade: pause and blackout attribution" `Quick
            test_rolling_upgrade_pause_and_blackout;
          Alcotest.test_case "chaos drill: panic, drain, failover, re-admit" `Quick
            test_chaos_drill_converges;
          Alcotest.test_case "steady run under a bytes/event ceiling" `Quick
            test_fleet_steady_bytes_per_event;
        ] );
      ( "parallel",
        [
          qtest ~count:6 "fleet -j k byte-identical to sequential"
            QCheck.(quad small_nat small_nat small_nat small_nat)
            prop_fleet_parallel_deterministic;
          Alcotest.test_case "chaos drill under parallelism: identical" `Quick
            test_chaos_drill_parallel_identical;
          Alcotest.test_case "every packed effect kind: -j 2 identical" `Quick
            test_every_effect_kind_parallel_identical;
        ] );
      ( "anatomy",
        [
          Alcotest.test_case "phases sum exactly: every scheduler" `Slow
            test_anatomy_sums_every_scheduler;
          Alcotest.test_case "phases sum exactly: every LB policy" `Quick
            test_anatomy_sums_every_lb;
          qtest ~count:8 "phases sum exactly: random sched x lb x seed"
            QCheck.(triple small_nat small_nat small_nat)
            prop_anatomy_sums;
          Alcotest.test_case "anatomy on/off: zero perturbation" `Quick
            test_anatomy_zero_perturbation;
          Alcotest.test_case "exemplars deterministic, worst-first, exported" `Quick
            test_anatomy_exemplars_deterministic;
        ] );
      ( "seeds",
        [ Alcotest.test_case "workload_seed splitter" `Quick test_workload_seed_splitter ] );
    ]
