(* Request anatomy: online end-to-end latency decomposition for the
   cluster tier.

   Every Traffic request carries a compact int request-id; the fleet calls
   [enqueue] when the LB's pick lands the request in a host ingress queue,
   [take] when a worker task dequeues it, and [complete] when the worker
   finishes.  From those three observations plus two task-side facts (the
   worker's [last_wake] and its migration counter) the module derives an
   exact six-phase decomposition whose parts sum to the measured
   end-to-end latency with zero rounding:

     lb_decision    = enqueued - arrived
     ingress_wait   = woken - enqueued      (woken clamped into [enqueued, taken])
     rq_wait        = taken - woken
     service        = nominal cpu demand (fleet dispatch overhead + request
                      service time), exact because a worker's Compute never
                      pays a fresh machine dispatch overhead mid-segment
     preempt_stall  = whatever of (completed - taken) - service is not
                      attributed to migrations
     migration_cost = min(stall, migrations_during_service * costs.migration)

   The clamp on [woken] makes the busy-worker case exact too: a worker
   that never blocked between requests reports a stale [last_wake], in
   which case the whole queue delay is ingress wait and rq_wait is 0.

   Aggregation is bounded-memory by construction: per-tenant and per-host
   phase sums/counts (exact integers, for reports and tests), optional
   per-tenant/per-host/per-phase histograms in a {!Metrics.Registry}, and
   a top-K worst-request exemplar ring whose full timelines export as
   Chrome-trace flow events.  Recording never touches simulated time. *)

type phase =
  | Lb_decision
  | Ingress_wait
  | Rq_wait
  | Service
  | Preempt_stall
  | Migration_cost

let phases = [ Lb_decision; Ingress_wait; Rq_wait; Service; Preempt_stall; Migration_cost ]

let nr_phases = 6

let phase_index = function
  | Lb_decision -> 0
  | Ingress_wait -> 1
  | Rq_wait -> 2
  | Service -> 3
  | Preempt_stall -> 4
  | Migration_cost -> 5

let phase_name = function
  | Lb_decision -> "lb_decision"
  | Ingress_wait -> "ingress_wait"
  | Rq_wait -> "rq_wait"
  | Service -> "service"
  | Preempt_stall -> "preempt_stall"
  | Migration_cost -> "migration_cost"

type completion = {
  req : int;
  tenant : int;
  host : int;
  pid : int;
  arrived : int;
  enqueued : int;
  woken : int;
  taken : int;
  completed : int;
  migrations : int;
  durations : int array; (* indexed by phase_index, sums to [e2e] exactly *)
}

let e2e c = c.completed - c.arrived

type pending = {
  p_tenant : int;
  p_host : int;
  p_arrived : int;
  p_enqueued : int;
  p_service : int;
  mutable p_pid : int;
  mutable p_woken : int;
  mutable p_taken : int;
  mutable p_mig_at_take : int;
  mutable p_taken_set : bool;
}

type t = {
  top_k : int;
  migration_cost : int;
  tenants : string array;
  hosts : int;
  inflight : (int, pending) Hashtbl.t;
  tenant_phase_sum : int array array; (* tenant -> phase -> total ns *)
  tenant_count : int array;
  tenant_e2e_sum : int array;
  mutable completions : int;
  mutable orphans : int;
  mutable max_sum_error : int;
  mutable exemplars : completion list; (* worst-first, length <= top_k *)
  mutable hook : (completion -> unit) option;
  (* pre-resolved registry handles; empty arrays when no registry *)
  tenant_phase_hist : Metrics.Registry.histogram array array;
  host_phase_hist : Metrics.Registry.histogram array array;
  tenant_e2e_hist : Metrics.Registry.histogram array;
}

let create ?(top_k = 8) ?registry ~migration_cost ~tenants ~hosts () =
  if top_k <= 0 then invalid_arg "Anatomy.create: top_k must be positive";
  if hosts <= 0 then invalid_arg "Anatomy.create: hosts must be positive";
  let nt = Array.length tenants in
  let tenant_phase_hist, host_phase_hist, tenant_e2e_hist =
    match registry with
    | None -> ([||], [||], [||])
    | Some reg ->
      let phase_hist key value =
        Array.of_list
          (List.map
             (fun ph ->
               Metrics.Registry.histogram reg
                 ~help:"per-phase share of request end-to-end latency"
                 (Metrics.Registry.labeled "anatomy_phase_ns"
                    [ (key, value); ("phase", phase_name ph) ]))
             phases)
      in
      ( Array.map (fun tn -> phase_hist "tenant" tn) tenants,
        Array.init hosts (fun h -> phase_hist "host" (string_of_int h)),
        Array.map
          (fun tn ->
            Metrics.Registry.histogram reg ~help:"request end-to-end latency"
              (Metrics.Registry.labeled "anatomy_e2e_ns" [ ("tenant", tn) ]))
          tenants )
  in
  {
    top_k;
    migration_cost;
    tenants;
    hosts;
    inflight = Hashtbl.create 256;
    tenant_phase_sum = Array.init nt (fun _ -> Array.make nr_phases 0);
    tenant_count = Array.make nt 0;
    tenant_e2e_sum = Array.make nt 0;
    completions = 0;
    orphans = 0;
    max_sum_error = 0;
    exemplars = [];
    hook = None;
    tenant_phase_hist;
    host_phase_hist;
    tenant_e2e_hist;
  }

let on_complete t f = t.hook <- Some f

let enqueue t ~req ~tenant ~host ~arrived ~service ~now =
  Hashtbl.replace t.inflight req
    {
      p_tenant = tenant;
      p_host = host;
      p_arrived = arrived;
      p_enqueued = now;
      p_service = service;
      p_pid = -1;
      p_woken = now;
      p_taken = now;
      p_mig_at_take = 0;
      p_taken_set = false;
    }

let take t ~req ~pid ~last_wake ~migrations ~now =
  match Hashtbl.find_opt t.inflight req with
  | None -> t.orphans <- t.orphans + 1
  | Some p ->
    p.p_pid <- pid;
    p.p_taken <- now;
    p.p_mig_at_take <- migrations;
    p.p_taken_set <- true;
    (* a worker that stayed busy between requests never re-blocked, so its
       last_wake predates this request: charge the whole queue delay to the
       ingress phase (the request was never on a runqueue) *)
    p.p_woken <-
      (if last_wake >= p.p_enqueued && last_wake <= now then last_wake else now)

(* worst-first total order: longer e2e first, lower request-id on ties *)
let worse a b = e2e a > e2e b || (e2e a = e2e b && a.req < b.req)

let note_exemplar t c =
  let rec insert = function
    | [] -> [ c ]
    | x :: rest -> if worse c x then c :: x :: rest else x :: insert rest
  in
  let rec trim n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: trim (n - 1) rest
  in
  t.exemplars <- trim t.top_k (insert t.exemplars)

let complete t ~req ~migrations ~now =
  match Hashtbl.find_opt t.inflight req with
  | None -> t.orphans <- t.orphans + 1
  | Some p when not p.p_taken_set ->
    Hashtbl.remove t.inflight req;
    t.orphans <- t.orphans + 1
  | Some p ->
    Hashtbl.remove t.inflight req;
    let durations = Array.make nr_phases 0 in
    durations.(0) <- p.p_enqueued - p.p_arrived;
    durations.(1) <- p.p_woken - p.p_enqueued;
    durations.(2) <- p.p_taken - p.p_woken;
    let on_cpu = now - p.p_taken in
    let stall = on_cpu - p.p_service in
    let service, stall = if stall < 0 then (on_cpu, 0) else (p.p_service, stall) in
    let mig = min stall ((migrations - p.p_mig_at_take) * t.migration_cost) in
    let mig = max 0 mig in
    durations.(3) <- service;
    durations.(4) <- stall - mig;
    durations.(5) <- mig;
    let c =
      {
        req;
        tenant = p.p_tenant;
        host = p.p_host;
        pid = p.p_pid;
        arrived = p.p_arrived;
        enqueued = p.p_enqueued;
        woken = p.p_woken;
        taken = p.p_taken;
        completed = now;
        migrations = migrations - p.p_mig_at_take;
        durations;
      }
    in
    let err = abs (Array.fold_left ( + ) 0 durations - e2e c) in
    if err > t.max_sum_error then t.max_sum_error <- err;
    t.completions <- t.completions + 1;
    let tn = c.tenant and h = c.host in
    if tn >= 0 && tn < Array.length t.tenant_count then begin
      t.tenant_count.(tn) <- t.tenant_count.(tn) + 1;
      t.tenant_e2e_sum.(tn) <- t.tenant_e2e_sum.(tn) + e2e c;
      let sums = t.tenant_phase_sum.(tn) in
      Array.iteri (fun i d -> sums.(i) <- sums.(i) + d) durations;
      if Array.length t.tenant_phase_hist > 0 then begin
        let hists = t.tenant_phase_hist.(tn) in
        Array.iteri (fun i d -> Metrics.Registry.observe hists.(i) ~cpu:0 d) durations;
        Metrics.Registry.observe t.tenant_e2e_hist.(tn) ~cpu:0 (e2e c)
      end
    end;
    if h >= 0 && h < t.hosts then begin
      if Array.length t.host_phase_hist > 0 then
        let hists = t.host_phase_hist.(h) in
        Array.iteri (fun i d -> Metrics.Registry.observe hists.(i) ~cpu:0 d) durations
    end;
    note_exemplar t c;
    match t.hook with Some f -> f c | None -> ()

(* ---------- reading ---------- *)

let completions t = t.completions

let orphans t = t.orphans

let max_sum_error t = t.max_sum_error

let exemplars t = t.exemplars

let tenant_names t = t.tenants

let tenant_count t tn = t.tenant_count.(tn)

let tenant_phase_sum t tn ph = t.tenant_phase_sum.(tn).(phase_index ph)

let tenant_e2e_sum t tn = t.tenant_e2e_sum.(tn)

(* ---------- Chrome-trace flow export for the exemplar ring ---------- *)

let lb_pid = 0

let host_pid h = 1 + h

let sep d first = if !first then first := false else Export.add_char d ','

(* Chrome collapses zero-width slices; clamp to 1 ns so every phase of an
   exemplar stays clickable. *)
let slice d ~first ~name ~cat ~pid ~tid ~start_ns ~stop_ns ~args =
  sep d first;
  Export.add_string d "{\"name\":\"";
  Export.add_escaped d name;
  Export.add_string d "\",\"cat\":\"";
  Export.add_string d cat;
  Export.add_string d "\",\"ph\":\"X\",\"ts\":";
  Export.add_us d start_ns;
  Export.add_string d ",\"dur\":";
  Export.add_us d (max 1 (stop_ns - start_ns));
  Export.add_string d ",\"pid\":";
  Export.add_int d pid;
  Export.add_string d ",\"tid\":";
  Export.add_int d tid;
  Export.add_string d ",\"args\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Export.add_char d ',';
      Export.add_char d '"';
      Export.add_escaped d k;
      Export.add_string d "\":\"";
      Export.add_escaped d v;
      Export.add_char d '"')
    args;
  Export.add_string d "}}"

let flow d ~first ~ph ~id ~pid ~tid ~ts =
  sep d first;
  Export.add_string d "{\"name\":\"req ";
  Export.add_int d id;
  Export.add_string d "\",\"cat\":\"anatomy\",\"ph\":\"";
  Export.add_string d ph;
  Export.add_string d "\",\"id\":";
  Export.add_int d id;
  Export.add_string d ",\"pid\":";
  Export.add_int d pid;
  Export.add_string d ",\"tid\":";
  Export.add_int d tid;
  Export.add_string d ",\"ts\":";
  Export.add_us d ts;
  if ph = "f" then Export.add_string d ",\"bp\":\"e\"";
  Export.add_char d '}'

let meta d ~first ~pid ~tid ~name ~value =
  sep d first;
  Export.add_meta d ~pid ~tid ~name ~value

let write_chrome t d =
  let exs = t.exemplars in
  Export.add_string d "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  meta d ~first ~pid:lb_pid ~tid:0 ~name:"process_name" ~value:"load balancer";
  meta d ~first ~pid:lb_pid ~tid:0 ~name:"thread_name" ~value:"lb decision";
  let hosts_seen = Hashtbl.create 8 in
  let workers_seen = Hashtbl.create 8 in
  List.iter
    (fun c ->
      if not (Hashtbl.mem hosts_seen c.host) then begin
        Hashtbl.replace hosts_seen c.host ();
        let pid = host_pid c.host in
        meta d ~first ~pid ~tid:0 ~name:"process_name"
          ~value:(Printf.sprintf "host %d" c.host);
        meta d ~first ~pid ~tid:0 ~name:"thread_name" ~value:"ingress queue";
        meta d ~first ~pid ~tid:1 ~name:"thread_name" ~value:"runqueue"
      end;
      if not (Hashtbl.mem workers_seen (c.host, c.pid)) then begin
        Hashtbl.replace workers_seen (c.host, c.pid) ();
        meta d ~first ~pid:(host_pid c.host) ~tid:c.pid ~name:"thread_name"
          ~value:(Printf.sprintf "worker %d" c.pid)
      end)
    exs;
  List.iter
    (fun c ->
      let tenant =
        if c.tenant >= 0 && c.tenant < Array.length t.tenants then t.tenants.(c.tenant)
        else string_of_int c.tenant
      in
      let label = Printf.sprintf "req %d" c.req in
      let args ph =
        [
          ("req", string_of_int c.req);
          ("tenant", tenant);
          ("phase", phase_name ph);
          ("ns", string_of_int c.durations.(phase_index ph));
        ]
      in
      let hp = host_pid c.host in
      slice d ~first ~name:label ~cat:"anatomy" ~pid:lb_pid ~tid:0 ~start_ns:c.arrived
        ~stop_ns:c.enqueued ~args:(args Lb_decision);
      slice d ~first ~name:label ~cat:"anatomy" ~pid:hp ~tid:0 ~start_ns:c.enqueued
        ~stop_ns:c.woken ~args:(args Ingress_wait);
      slice d ~first ~name:label ~cat:"anatomy" ~pid:hp ~tid:1 ~start_ns:c.woken
        ~stop_ns:c.taken ~args:(args Rq_wait);
      slice d ~first ~name:label ~cat:"anatomy" ~pid:hp ~tid:c.pid ~start_ns:c.taken
        ~stop_ns:c.completed
        ~args:
          [
            ("req", string_of_int c.req);
            ("tenant", tenant);
            ("e2e_ns", string_of_int (e2e c));
            ("service_ns", string_of_int c.durations.(phase_index Service));
            ("preempt_stall_ns", string_of_int c.durations.(phase_index Preempt_stall));
            ("migration_cost_ns", string_of_int c.durations.(phase_index Migration_cost));
            ("migrations", string_of_int c.migrations);
          ];
      (* flow arrows LB -> ingress -> runqueue -> worker *)
      flow d ~first ~ph:"s" ~id:c.req ~pid:lb_pid ~tid:0 ~ts:c.arrived;
      flow d ~first ~ph:"t" ~id:c.req ~pid:hp ~tid:0 ~ts:c.enqueued;
      flow d ~first ~ph:"t" ~id:c.req ~pid:hp ~tid:1 ~ts:c.woken;
      flow d ~first ~ph:"f" ~id:c.req ~pid:hp ~tid:c.pid ~ts:c.taken)
    exs;
  Export.add_string d "]}"

let chrome_json t = Export.document (write_chrome t)

let save_chrome t ~path =
  let doc = chrome_json t in
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc doc)

module Private = struct
  let on_complete = on_complete

  let chrome_json = chrome_json
end
