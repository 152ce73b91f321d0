module T = Kernsim.Task
module M = Kernsim.Machine
module Reg = Metrics.Registry

type ns = Kernsim.Time.ns

type upgrade = { at : ns; stagger : ns }

type chaos = { victim : int; after_calls : int; recovery : ns }

(* Cross-host side effects produced while a host's machine advances.

   Under `-j N` the hosts of one epoch run concurrently, so anything that
   touches fleet-shared state (the balancer, per-tenant counters, shared
   histograms, the anatomy aggregator, the oplog) is not applied inline:
   the advancing host appends it to its own buffer — with every input
   value captured at emission time — and the coordinating domain replays
   the buffers in fixed host order at the epoch barrier.  Sequential runs
   go through the same buffers, and the replay order (host 0's effects,
   then host 1's, each host chronological) is exactly the order the old
   sequential loop produced them in, which is why `-j N` is byte-identical
   to `-j 1`.

   An effect is packed as [fx_stride] ints: a tag, then up to five
   arguments, named after each tag below.  The buffer is one int array
   that grows by doubling and is reused every epoch, so buffering an
   effect allocates nothing. *)
type fx = { mutable buf : int array; mutable len : int  (* effects, not ints *) }

let fx_stride = 6

let fx_done = 0 (* tenant, lat, measured (0/1), blackout (0/1) *)

let fx_drop = 1 (* tenant *)

let fx_anat_enq = 2 (* req, tenant, arrived, service, now *)

let fx_anat_take = 3 (* req, pid, last_wake, migrations, now *)

let fx_anat_done = 4 (* req, migrations, now *)

let fx_upgrade_op = 5 (* ts: the oplog's "upgrade" entry *)

let fx_upgraded = 6 (* pause *)

let fx_upgrade_failed = 7

let fx_add b tag a0 a1 a2 a3 a4 =
  let o = b.len * fx_stride in
  if o = Array.length b.buf then b.buf <- Ds.Column.grow b.buf (2 * o) 0;
  let buf = b.buf in
  buf.(o) <- tag;
  buf.(o + 1) <- a0;
  buf.(o + 2) <- a1;
  buf.(o + 3) <- a2;
  buf.(o + 4) <- a3;
  buf.(o + 5) <- a4;
  b.len <- b.len + 1

(* A host's request FIFOs hold each request as four consecutive ints —
   id, tenant, arrival, service — in one [Ds.Int_deque], so queueing a
   request allocates nothing once the ring has grown to the host's working
   depth.  Readers pop the four in the same order. *)
let req_ints = 4

let push_req q ~id ~tenant ~arrived ~service =
  Ds.Int_deque.push_back q id;
  Ds.Int_deque.push_back q tenant;
  Ds.Int_deque.push_back q arrived;
  Ds.Int_deque.push_back q service

type host = {
  id : int;
  entry : Schedulers.Registry.entry;
  built : Workloads.Setup.built;
  chan : int;  (* ingress doorbell *)
  arrivals : Ds.Int_deque.t;  (* placed, not yet at the host *)
  mutable ingress : unit -> unit;  (* admits the oldest arrival *)
  queue : Ds.Int_deque.t;
  tracer : Trace.Tracer.t option;  (* chaos victim only *)
  sanitizer : Trace.Sanitizer.t option;
  hist : Reg.histogram;
  fx : fx;  (* chronological; deferred to the epoch barrier *)
  mutable inflight : int;  (* queued + executing *)
  mutable completed : int;
  mutable pending_drain : string option;  (* set by the watchdog *)
  mutable drilled : bool;  (* has been drained once *)
  mutable readmitted : bool;
  mutable drained_at : ns;
  mutable bl_from : ns;  (* last upgrade's blackout window *)
  mutable bl_until : ns;
}

(* what a server task spends taking a request off the ingress queue,
   before the request's own service time *)
let dispatch_overhead = Kernsim.Time.us 2

type t = {
  epoch : ns;
  warmup : ns;
  queue_cap : int;
  recovery : ns;
  observe : bool;  (* false = never measure: the no-observability baseline *)
  pool : Ds.Domain_pool.t option;  (* epoch-parallel host advance *)
  (* built once at [create], so an epoch allocates nothing: *)
  target : ns ref;  (* the epoch's end, read by [advance] *)
  advance : (unit -> unit) array;  (* per host: run to [!target] *)
  place : req_id:int -> tenant:int -> flow_key:int -> arrived:ns -> service:ns -> unit;
  traffic : Traffic.t;
  lb : Lb.t;
  hosts : host array;
  reg : Reg.t;
  tenant_hist : Reg.histogram array;
  blackout_h : Reg.histogram;
  anat : Trace.Anatomy.t option;
  completed : int array;  (* per tenant *)
  dropped : int array;
  rejected : int array;
  mutable clock : ns;
  mutable measuring : bool;
  mutable oplog : (ns * int * string) list;  (* newest first *)
  mutable upgrades_done : (int * ns) list;  (* newest first *)
  mutable upgrade_failures : int;
}

let op t host ~ts name =
  t.oplog <- (ts, host.id, name) :: t.oplog;
  match host.tracer with
  | Some tr -> Trace.Tracer.emit tr ~ts ~cpu:0 (Trace.Event.Fleet_op { host = host.id; op = name })
  | None -> ()

(* A server task: pull a request off the host queue, pay dispatch overhead
   plus its service time, account the end-to-end latency, block on the
   doorbell for the next one.  Signals pair one-to-one with enqueued
   requests, so a woken worker always finds work.  Runs inside the host's
   machine, possibly on a pool domain: host-local state (queue, inflight,
   the host's own histogram, its tracer) is touched directly; everything
   fleet-shared goes through the [fx] buffer.  The request in service is
   three ints ([req] is -1 between requests) and its actions are
   immediate, so a step allocates nothing. *)
let worker_beh t host =
  let req = ref (-1) and tenant = ref 0 and arrived = ref 0 in
  let machine = host.built.Workloads.Setup.machine in
  fun (ctx : T.ctx) ->
    if !req < 0 then begin
      let q = host.queue in
      if Ds.Int_deque.is_empty q then T.block host.chan
      else begin
        req := Ds.Int_deque.pop_front q;
        tenant := Ds.Int_deque.pop_front q;
        arrived := Ds.Int_deque.pop_front q;
        let service = Ds.Int_deque.pop_front q in
        (* request-context markers ride the host tracer whenever one exists,
           independent of the anatomy switch — so toggling anatomy cannot
           change any event stream (the zero-perturbation contract) *)
        (match host.tracer with
        | Some tr ->
          Trace.Tracer.emit tr ~ts:ctx.T.now ~cpu:ctx.T.cpu
            (Trace.Event.Req_take { req = !req; pid = ctx.T.self })
        | None -> ());
        (match t.anat with
        | Some _ -> (
          match M.find_task machine ctx.T.self with
          | Some task ->
            fx_add host.fx fx_anat_take !req ctx.T.self task.T.last_wake task.T.migrations
              ctx.T.now
          | None -> ())
        | None -> ());
        T.compute (dispatch_overhead + service)
      end
    end
    else begin
      let lat = ctx.T.now - !arrived in
      host.inflight <- host.inflight - 1;
      host.completed <- host.completed + 1;
      if t.measuring then Reg.observe host.hist lat;
      let blackout = host.bl_from >= 0 && ctx.T.now >= host.bl_from && ctx.T.now <= host.bl_until in
      fx_add host.fx fx_done !tenant lat (Bool.to_int t.measuring) (Bool.to_int blackout) 0;
      (match host.tracer with
      | Some tr ->
        Trace.Tracer.emit tr ~ts:ctx.T.now ~cpu:ctx.T.cpu
          (Trace.Event.Req_done { req = !req; pid = ctx.T.self })
      | None -> ());
      (match t.anat with
      | Some _ -> (
        match M.find_task machine ctx.T.self with
        | Some task -> fx_add host.fx fx_anat_done !req task.T.migrations ctx.T.now 0 0
        | None -> ())
      | None -> ());
      req := -1;
      T.block host.chan
    end

(* A placed request reaches its host at its arrival time.  [place] pushes
   it on the host's [arrivals] FIFO and schedules the host's one [ingress]
   callback, which admits the oldest arrival: a host's placements come in
   arrival order with non-decreasing fire times, and the event core breaks
   ties first-in first-out, so each callback finds its own request at the
   head. *)
let ingress t host () =
  let a = host.arrivals in
  let req = Ds.Int_deque.pop_front a in
  let tenant = Ds.Int_deque.pop_front a in
  let arrived = Ds.Int_deque.pop_front a in
  let service = Ds.Int_deque.pop_front a in
  let m = host.built.Workloads.Setup.machine in
  if Ds.Int_deque.length host.queue >= t.queue_cap * req_ints then
    fx_add host.fx fx_drop tenant 0 0 0 0
  else begin
    push_req host.queue ~id:req ~tenant ~arrived ~service;
    host.inflight <- host.inflight + 1;
    (match host.tracer with
    | Some tr ->
      Trace.Tracer.emit tr ~ts:(M.now m) ~cpu:0 (Trace.Event.Req_enqueue { req; tenant })
    | None -> ());
    (match t.anat with
    | Some _ ->
      fx_add host.fx fx_anat_enq req tenant arrived (dispatch_overhead + service) (M.now m)
    | None -> ());
    M.signal m host.chan
  end

(* The traffic window's callback: pick a host and queue the request on
   its arrivals, or count a rejection when every host is drained.
   Partially applied once, at [create]. *)
let place lb hosts rejected ~req_id ~tenant ~flow_key ~arrived ~service =
  match Lb.pick lb ~key:flow_key with
  | None -> rejected.(tenant) <- rejected.(tenant) + 1
  | Some h ->
    Lb.dispatch lb h;
    let host = hosts.(h) in
    let m = host.built.Workloads.Setup.machine in
    push_req host.arrivals ~id:req_id ~tenant ~arrived ~service;
    M.at m ~delay:(max 0 (arrived - M.now m)) host.ingress

(* Advance one host's machine to the epoch boundary.  Safe on any domain:
   everything it mutates is host-local (its module's locks included) or
   buffered in [host.fx]. *)
let advance_host host ~until = M.run_until host.built.Workloads.Setup.machine until

let host_label (e : Schedulers.Registry.entry) = e.Schedulers.Registry.name

let create ?(topology = Kernsim.Topology.one_socket) ?(workers = 6) ?(queue_cap = 4096)
    ?(epoch = Kernsim.Time.ms 1) ?(warmup = 0) ?weights
    ?(lb = Lb.Least_outstanding) ?upgrade ?chaos ?(anatomy = false) ?(anatomy_top = 8) ?record
    ?(observe = true) ?pool ~seed ~hosts ~tenants () =
  if hosts = [] then invalid_arg "Fleet.create: no hosts";
  if epoch <= 0 then invalid_arg "Fleet.create: epoch must be positive";
  if workers < 1 then invalid_arg "Fleet.create: workers must be positive";
  if queue_cap < 1 then invalid_arg "Fleet.create: queue_cap must be positive";
  if tenants = [] then invalid_arg "Fleet.create: no tenants";
  if List.exists (fun (tn : Traffic.tenant) -> tn.connections < 1) tenants then
    invalid_arg "Fleet.create: connections must be positive";
  let flow_len_ok (tn : Traffic.tenant) =
    tn.flow_len_mean >= 1.0 && Float.is_finite tn.flow_len_mean
  in
  if not (List.for_all flow_len_ok tenants) then
    invalid_arg "Fleet.create: flow length must be a finite mean >= 1";
  (match upgrade with
  | Some u when u.at < 0 || u.stagger < 0 ->
    invalid_arg "Fleet.create: upgrade time and stagger must be non-negative"
  | _ -> ());
  if anatomy_top < 1 then invalid_arg "Fleet.create: anatomy_top must be positive";
  let entries = Array.of_list hosts in
  let n = Array.length entries in
  (* one root seed, split in fixed order: everything downstream is a pure
     function of it (the reproducibility satellite) *)
  let root = Stats.Prng.create ~seed in
  let traffic_seed = Stats.Prng.next root in
  let lb_seed = Stats.Prng.next root in
  let chaos_seed = Stats.Prng.next root in
  let traffic = Traffic.create ~seed:traffic_seed ~start:0 tenants in
  let balancer = Lb.create ?weights ~policy:lb ~hosts:n ~seed:lb_seed () in
  let reg = Reg.create () in
  (match chaos with
  | Some c when c.victim < 0 || c.victim >= n -> invalid_arg "Fleet.create: chaos victim out of range"
  | _ -> ());
  let plan_for (c : chaos) =
    let spec = Printf.sprintf "panic@pick_next_task:after=%d,p=1,max=1" c.after_calls in
    match Fault.Plan.parse spec with
    | Ok p -> p
    | Error e -> invalid_arg ("Fleet.create: " ^ e)
  in
  let mk_host id entry =
    let is_victim = match chaos with Some c -> c.victim = id | None -> false in
    let kind =
      match (Workloads.Setup.of_registry entry, chaos) with
      | Workloads.Setup.Enoki_sched m, Some c when is_victim ->
        Workloads.Setup.Enoki_sched (Fault.Inject.wrap ~seed:chaos_seed ~plan:(plan_for c) m)
      | _, Some _ when is_victim ->
        invalid_arg "Fleet.create: chaos victim must be an Enoki-module host"
      | k, _ -> k
    in
    let tracer, sanitizer =
      if is_victim then begin
        let tr = Trace.Tracer.create ~nr_cpus:(Kernsim.Topology.nr_cpus topology) () in
        let sz = Trace.Sanitizer.create ~nr_cpus:(Kernsim.Topology.nr_cpus topology) () in
        Trace.Sanitizer.attach sz tr;
        (Some tr, Some sz)
      end
      else (None, None)
    in
    (* tracer-ring probes for the victim land in the fleet registry under a
       host label, so they survive next to the per-tenant series *)
    (match tracer with
    | Some tr ->
      Workloads.Setup.register_tracer_probes ~labels:[ ("host", string_of_int id) ] reg tr
    | None -> ());
    let record = if id = 0 then record else None in
    let built = Workloads.Setup.build ?record ?tracer ~topology kind in
    let chan = M.new_chan built.Workloads.Setup.machine in
    let hist =
      Reg.histogram reg ~help:"end-to-end request latency per host (ns)"
        (Reg.labeled "fleet_host_latency_ns"
           [ ("host", string_of_int id); ("sched", host_label entry) ])
    in
    {
      id;
      entry;
      built;
      chan;
      arrivals = Ds.Int_deque.create ();
      ingress = ignore;
      queue = Ds.Int_deque.create ();
      tracer;
      sanitizer;
      hist;
      fx = { buf = Array.make (16 * fx_stride) 0; len = 0 };
      inflight = 0;
      completed = 0;
      pending_drain = None;
      drilled = false;
      readmitted = false;
      drained_at = 0;
      bl_from = -1;
      bl_until = -1;
    }
  in
  let hosts = Array.mapi mk_host entries in
  let nt = Traffic.nr_tenants traffic in
  let tenant_hist =
    Array.init nt (fun i ->
        Reg.histogram reg ~help:"end-to-end request latency per tenant (ns)"
          (Reg.labeled "fleet_request_latency_ns" [ ("tenant", Traffic.tenant_name traffic i) ]))
  in
  let blackout_h =
    Reg.histogram reg ~help:"request latency inside upgrade blackout windows (ns)"
      "fleet_blackout_latency_ns"
  in
  let anat =
    if not anatomy then None
    else
      let migration_cost =
        (M.costs hosts.(0).built.Workloads.Setup.machine).Kernsim.Costs.migration
      in
      Some
        (Trace.Anatomy.create ~top_k:anatomy_top ~registry:reg ~migration_cost
           ~tenants:(Array.init nt (Traffic.tenant_name traffic))
           ~hosts:n ())
  in
  let rejected = Array.make nt 0 in
  let target = ref 0 in
  let t =
    {
      epoch;
      warmup;
      queue_cap;
      recovery = (match chaos with Some c -> c.recovery | None -> Kernsim.Time.ms 10);
      observe;
      pool;
      target;
      advance = Array.map (fun host () -> advance_host host ~until:!target) hosts;
      place = place balancer hosts rejected;
      traffic;
      lb = balancer;
      hosts;
      reg;
      tenant_hist;
      blackout_h;
      anat;
      completed = Array.make nt 0;
      dropped = Array.make nt 0;
      rejected;
      clock = 0;
      measuring = observe && warmup <= 0;
      oplog = [];
      upgrades_done = [];
      upgrade_failures = 0;
    }
  in
  (* per-tenant counters surface in the exported metrics as probes over
     the authoritative arrays — no double bookkeeping on the hot path *)
  for i = 0 to nt - 1 do
    let lbl name = Reg.labeled name [ ("tenant", Traffic.tenant_name traffic i) ] in
    Reg.gauge_probe reg ~help:"requests completed" (lbl "fleet_completed_total") (fun () ->
        float_of_int t.completed.(i));
    Reg.gauge_probe reg ~help:"requests dropped on host-queue overflow" (lbl "fleet_dropped_total")
      (fun () -> float_of_int t.dropped.(i));
    Reg.gauge_probe reg ~help:"requests rejected with every host drained"
      (lbl "fleet_rejected_total") (fun () -> float_of_int t.rejected.(i))
  done;
  Array.iter
    (fun host ->
      let m = host.built.Workloads.Setup.machine in
      host.ingress <- ingress t host;
      (* the server pool *)
      for w = 0 to workers - 1 do
        ignore
          (M.spawn m
             {
               (T.default_spec ~name:(Printf.sprintf "srv%d-%d" host.id w) (worker_beh t host)) with
               T.policy = host.built.Workloads.Setup.policy;
               group = "server";
             })
      done;
      Workloads.Setup.spawn_agent host.built;
      (* the watchdog path: panic burst of 1 (the drill injects exactly
         one), action deferred to the epoch poll via [pending_drain] *)
      (match (host.tracer, host.sanitizer) with
      | Some tr, sz ->
        let config =
          { Fault.Watchdog.default_config with panic_burst = 1; starvation = false; max_fires = 2 }
        in
        let w =
          Fault.Watchdog.create ~config ?sanitizer:sz
            ~action:(fun ~reason ~at:_ -> host.pending_drain <- Some reason)
            ()
        in
        Fault.Watchdog.attach w tr
      | None, _ -> ());
      (* the rolling-upgrade schedule, staggered by host id; the callback
         fires mid-advance (possibly on a pool domain), so its fleet-wide
         bookkeeping rides the fx buffer while the host-local blackout
         window and trace marker apply in place *)
      match (upgrade, host.built.Workloads.Setup.enoki, Schedulers.Registry.enoki_module host.entry)
      with
      | Some u, Some e, Some m ->
        M.at host.built.Workloads.Setup.machine
          ~delay:(u.at + (host.id * u.stagger))
          (fun () ->
            let now = M.now host.built.Workloads.Setup.machine in
            fx_add host.fx fx_upgrade_op now 0 0 0 0;
            (match host.tracer with
            | Some tr ->
              Trace.Tracer.emit tr ~ts:now ~cpu:0
                (Trace.Event.Fleet_op { host = host.id; op = "upgrade" })
            | None -> ());
            match Enoki.Enoki_c.upgrade e m with
            | Ok (s : Enoki.Upgrade.stats) ->
              host.bl_from <- now;
              host.bl_until <- now + s.Enoki.Upgrade.pause + t.epoch;
              fx_add host.fx fx_upgraded s.Enoki.Upgrade.pause 0 0 0 0
            | Error _ -> fx_add host.fx fx_upgrade_failed 0 0 0 0 0)
      | _ -> ())
    hosts;
  t

let quarantined host =
  match host.built.Workloads.Setup.enoki with
  | Some e -> Enoki.Enoki_c.quarantined e
  | None -> false

(* The drill state machine, polled once per epoch: quarantine (or a
   watchdog fire) -> LB drain; queue dry + recovery delay -> re-admit. *)
let poll_drills t =
  for h = 0 to Array.length t.hosts - 1 do
    let host = t.hosts.(h) in
    if (not host.drilled) && (host.pending_drain <> None || quarantined host) then begin
      host.drilled <- true;
      host.drained_at <- t.clock;
      Lb.drain t.lb host.id;
      op t host ~ts:t.clock "drain"
    end
    else if
      host.drilled && (not host.readmitted) && host.inflight = 0
      && t.clock >= host.drained_at + t.recovery
    then begin
      host.readmitted <- true;
      Lb.admit t.lb host.id;
      op t host ~ts:t.clock "admit"
    end
  done

(* Replay one host's buffered effects on the coordinating domain.  Called
   in host order at the epoch barrier; within a host the buffer replays
   chronologically — together that is exactly the order the sequential
   loop used to produce these side effects in, so the shared state (LB
   outstanding counts, tenant counters, shared histograms, anatomy, the
   oplog) ends every epoch bit-identical for any [-j]. *)
let apply_fx t host =
  let buf = host.fx.buf in
  for e = 0 to host.fx.len - 1 do
    let o = e * fx_stride in
    let tag = buf.(o) in
    let a0 = buf.(o + 1) and a1 = buf.(o + 2) and a2 = buf.(o + 3) in
    let a3 = buf.(o + 4) and a4 = buf.(o + 5) in
    if tag = fx_done then begin
      Lb.complete t.lb host.id;
      t.completed.(a0) <- t.completed.(a0) + 1;
      if a2 <> 0 then Reg.observe t.tenant_hist.(a0) a1;
      if a3 <> 0 then Reg.observe t.blackout_h a1
    end
    else if tag = fx_drop then begin
      t.dropped.(a0) <- t.dropped.(a0) + 1;
      Lb.complete t.lb host.id
    end
    else if tag = fx_upgrade_op then t.oplog <- (a0, host.id, "upgrade") :: t.oplog
    else if tag = fx_upgraded then t.upgrades_done <- (host.id, a0) :: t.upgrades_done
    else if tag = fx_upgrade_failed then t.upgrade_failures <- t.upgrade_failures + 1
    else
      match t.anat with
      | None -> ()
      | Some a ->
        if tag = fx_anat_enq then
          Trace.Anatomy.enqueue a ~req:a0 ~tenant:a1 ~host:host.id ~arrived:a2 ~service:a3 ~now:a4
        else if tag = fx_anat_take then
          Trace.Anatomy.take a ~req:a0 ~pid:a1 ~last_wake:a2 ~migrations:a3 ~now:a4
        else Trace.Anatomy.complete a ~req:a0 ~migrations:a1 ~now:a2
  done;
  host.fx.len <- 0

let step t ~limit =
  let until = min (t.clock + t.epoch) limit in
  if t.observe && (not t.measuring) && t.clock >= t.warmup then t.measuring <- true;
  Traffic.iter_window t.traffic ~until t.place;
  (* the epoch is a conservative-lookahead barrier: no host-to-host event
     crosses it (LB and ingress happen above, at epoch edges), so the
     hosts advance independently — in parallel when a pool is attached *)
  t.target := until;
  (match t.pool with
  | Some pool when Ds.Domain_pool.size pool > 1 -> Ds.Domain_pool.run pool t.advance
  | _ ->
    for h = 0 to Array.length t.hosts - 1 do
      advance_host t.hosts.(h) ~until
    done);
  (* deterministic merge: fixed host order, chronological within a host *)
  for h = 0 to Array.length t.hosts - 1 do
    apply_fx t t.hosts.(h)
  done;
  t.clock <- until;
  poll_drills t

let run t ~until = while t.clock < until do step t ~limit:until done

let clock t = t.clock

let registry t = t.reg

let anatomy t = t.anat

let events_dispatched t =
  Array.fold_left (fun n h -> n + M.events_dispatched h.built.Workloads.Setup.machine) 0 t.hosts

let traffic t = t.traffic

type tenant_stat = {
  tenant : string;
  completed : int;
  dropped : int;
  rejected : int;
  p50 : ns;
  p99 : ns;
  p999 : ns;
}

let tenant_stats t =
  List.init (Traffic.nr_tenants t.traffic) (fun i ->
      let h = t.tenant_hist.(i) in
      {
        tenant = Traffic.tenant_name t.traffic i;
        completed = t.completed.(i);
        dropped = t.dropped.(i);
        rejected = t.rejected.(i);
        p50 = Stats.Histogram.percentile h 50.0;
        p99 = Stats.Histogram.percentile h 99.0;
        p999 = Stats.Histogram.percentile h 99.9;
      })

type host_stat = {
  host : int;
  sched : string;
  completed : int;
  p99 : ns;
  drained : bool;
  quarantined : bool;
}

let host_stats t =
  Array.to_list
    (Array.map
       (fun h ->
         {
           host = h.id;
           sched = host_label h.entry;
           completed = h.completed;
           p99 = Stats.Histogram.percentile h.hist 99.0;
           drained = Lb.drained t.lb h.id;
           quarantined = quarantined h;
         })
       t.hosts)

let upgrades t = List.rev t.upgrades_done

let upgrade_failures t = t.upgrade_failures

let blackout t = t.blackout_h

let oplog t = List.rev t.oplog

let converged t = Array.for_all (fun h -> (not h.drilled) || h.readmitted) t.hosts

let sanitizer_ok t =
  Array.for_all
    (fun h -> match h.sanitizer with Some sz -> Trace.Sanitizer.ok sz | None -> true)
    t.hosts
