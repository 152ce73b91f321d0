type kind =
  | Cfs
  | Enoki_sched of (module Enoki.Sched_trait.S)
  | Ghost of Schedulers.Ghost_sim.policy

(* ---------- seed plumbing ----------

   Every workload generator draws its PRNG seed through this one splitter
   instead of carrying its own ad-hoc default.  With no root seed each
   generator keeps its historical canonical seed, so published baseline
   numbers stay byte-identical; with [?seed:(Some root)] the root is mixed
   with a stable hash of the generator name, giving each workload an
   independent stream while the whole run stays reproducible from the one
   root value. *)

let canonical_seed = function
  | "schbench" -> 42
  | "rocksdb" -> 7
  | "memcached" -> 11
  | _ -> 1

(* FNV-1a over the name, then two splitmix64-style finalisation rounds
   over (root xor name-hash).  Constants are truncated to OCaml's 63-bit
   native int; quality here only needs "different names -> decorrelated
   streams", not cryptographic strength. *)
let workload_seed ?seed name =
  match seed with
  | None -> canonical_seed name
  | Some root ->
    let h = ref 0x0100_0193 in
    String.iter (fun c -> h := (!h lxor Char.code c) * 0x0100_0193) name;
    let z = ref (root lxor !h) in
    z := (!z lxor (!z lsr 30)) * 0x2545_F491_4F6C_DD1D;
    z := (!z lxor (!z lsr 27)) * 0x1B87_3593_49BB_0941;
    let s = !z lxor (!z lsr 31) in
    s land max_int

let of_registry (e : Schedulers.Registry.entry) =
  match e.kind with
  | Schedulers.Registry.Builtin_cfs -> Cfs
  | Schedulers.Registry.Enoki m -> Enoki_sched m
  | Schedulers.Registry.Ghost p -> Ghost p

type built = {
  machine : Kernsim.Machine.t;
  policy : int;
  cfs_policy : int;
  enoki : Enoki.Enoki_c.t option;
  agent_core : int option;
  registry : Metrics.Registry.t option;
}

(* Tracer ring accounting surfaces in the registry as probes: reads at
   sample/export time, nothing on the emit path. *)
let register_tracer_probes ?(labels = []) reg tracer =
  let name n = Metrics.Registry.labeled n labels in
  Metrics.Registry.gauge_probe reg ~help:"trace events accepted into rings"
    (name "trace_emitted_total") (fun () -> float_of_int (Trace.Tracer.emitted tracer));
  Metrics.Registry.gauge_probe reg ~help:"trace events dropped on ring overrun"
    (name "trace_dropped_total") (fun () -> float_of_int (Trace.Tracer.dropped tracer));
  Metrics.Registry.gauge_probe reg ~help:"trace events currently buffered"
    (name "trace_buffered") (fun () -> float_of_int (Trace.Tracer.buffered tracer))

let build ?costs ?record ?tracer ?registry ?profile ?call_budget ~topology kind =
  Schedulers.Hints.register_codecs ();
  (* the lock tap is process-global: clear any tap a previous machine
     installed so its (now stale) tracer stops receiving events *)
  Enoki.Lock.set_trace_tap None;
  (match (registry, tracer) with
  | Some reg, Some tr -> register_tracer_probes reg tr
  | _ -> ());
  match kind with
  | Cfs ->
    let machine =
      Kernsim.Machine.create ?costs ?registry ?tracer ~topology
        ~classes:[ Kernsim.Cfs.factory () ] ()
    in
    { machine; policy = 0; cfs_policy = 0; enoki = None; agent_core = None; registry }
  | Enoki_sched m ->
    let enoki =
      Enoki.Enoki_c.create ?record ?tracer ?registry ?profile ?call_budget ~policy:0 m
    in
    let machine =
      Kernsim.Machine.create ?costs ?registry ?tracer ~topology
        ~classes:[ Enoki.Enoki_c.factory enoki; Kernsim.Cfs.factory () ]
        ()
    in
    { machine; policy = 0; cfs_policy = 1; enoki = Some enoki; agent_core = None; registry }
  | Ghost policy ->
    let machine =
      Kernsim.Machine.create ?costs ?registry ?tracer ~topology
        ~classes:[ Schedulers.Ghost_sim.factory policy; Kernsim.Cfs.factory () ]
        ()
    in
    {
      machine;
      policy = 0;
      cfs_policy = 1;
      enoki = None;
      agent_core =
        Schedulers.Ghost_sim.agent_cpu policy
          ~nr_cpus:(Kernsim.Topology.nr_cpus topology);
      registry;
    }

(* Workload generators record end-to-end request/wakeup latencies through
   this: a registry histogram when one is attached, a no-op otherwise, so
   call sites stay unconditional. *)
let request_observer b =
  match b.registry with
  | None -> fun _ -> ()
  | Some reg ->
    let h =
      Metrics.Registry.histogram reg ~help:"workload request/wakeup latency (ns)"
        "workload_request_latency_ns"
    in
    fun v -> Metrics.Registry.observe h ~cpu:0 v

let label = function
  | Cfs -> "cfs"
  | Enoki_sched (module S) -> "enoki:" ^ S.name
  | Ghost Schedulers.Ghost_sim.Fifo_per_cpu -> "ghost-fifo"
  | Ghost Schedulers.Ghost_sim.Sol -> "ghost-sol"
  | Ghost Schedulers.Ghost_sim.Gshinjuku -> "ghost-shinjuku"

let fmt_ns ns =
  if ns >= 1_000_000 then Printf.sprintf "%.1fms" (float_of_int ns /. 1e6)
  else if ns >= 1_000 then Printf.sprintf "%.1fus" (float_of_int ns /. 1e3)
  else Printf.sprintf "%dns" ns

let enoki_summary b =
  match b.enoki with
  | None -> []
  | Some e ->
    let open Enoki.Enoki_c in
    let f = failover_stats e in
    let base =
      [
        ("scheduler", scheduler_name e);
        ("calls", string_of_int (calls e));
        ("violations", string_of_int (violations e));
      ]
    in
    let breakdown =
      List.map
        (fun (kind, n) -> ("violation:" ^ kind, string_of_int n))
        (violation_breakdown e)
    in
    let fault =
      (if f.panics > 0 then [ ("module panics", string_of_int f.panics) ] else [])
      @ (if f.overruns > 0 then [ ("call-budget overruns", string_of_int f.overruns) ] else [])
      @ (match f.quarantined with
        | Some (reason, since) ->
          [ ("quarantined", Printf.sprintf "at %s (%s)" (fmt_ns since) reason) ]
        | None -> [])
      @ (if f.failovers > 0 then [ ("failovers to cfs", string_of_int f.failovers) ] else [])
      @
      match f.blackout with
      | Some ns -> [ ("failover blackout", fmt_ns ns) ]
      | None -> []
    in
    let upgrades =
      match upgrades e with
      | [] -> []
      | us ->
        List.concat_map
          (fun (u : Enoki.Upgrade.stats) ->
            [
              ( "upgrade",
                Printf.sprintf "pause %s, %d task%s %s" (fmt_ns u.pause) u.tasks_carried
                  (if u.tasks_carried = 1 then "" else "s")
                  (if u.transferred then "transferred" else "re-adopted (no transfer)") );
            ])
          (List.rev us)
    in
    base @ breakdown @ fault @ upgrades
