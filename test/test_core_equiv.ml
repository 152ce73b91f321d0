(* Backend equivalence: the default slot-heap event queue must be
   observationally identical to the reference binary heap.  (The test
   group keeps its name from the timing wheel the default replaced.)

   Every scheduler in the matrix runs its workload twice — once per
   backend — with a schedtrace tracer attached, and the two full event
   streams (every dispatch, wakeup, context switch, lock op, boundary
   crossing, with timestamps) must match event-for-event.  This is the
   strongest cheap check we have that swapping the queue implementation
   cannot change a single scheduling decision. *)

let one_socket = Kernsim.Topology.one_socket

let nr_cpus = Kernsim.Topology.nr_cpus one_socket

type driver = Pipe | Memcached

(* The whole registry, so a newly registered scheduler is covered without
   touching this file.  Core arbiters (Arachne) renounce the pipe workload
   by design and are driven through the memcached runtime instead. *)
let matrix : (string * Workloads.Setup.kind * driver) list =
  List.map
    (fun (e : Schedulers.Registry.entry) ->
      let kind =
        match e.kind with
        | Schedulers.Registry.Builtin_cfs -> Workloads.Setup.Cfs
        | Schedulers.Registry.Enoki m -> Workloads.Setup.Enoki_sched m
        | Schedulers.Registry.Ghost p -> Workloads.Setup.Ghost p
      in
      (e.name, kind, if e.arbiter then Memcached else Pipe))
    Schedulers.Registry.all

let run_traced kind driver backend =
  let tracer = Trace.Tracer.create ~nr_cpus () in
  let b = Workloads.Setup.build ~tracer ~sim_backend:backend ~topology:one_socket kind in
  (match driver with
  | Pipe -> ignore (Workloads.Pipe_bench.run b ~messages:2_000 ())
  | Memcached ->
    ignore
      (Workloads.Memcached.run b
         (Workloads.Memcached.default_params ~mode:Workloads.Memcached.Arachne_enoki
            ~load_kreqs:50. ())));
  ( Trace.Tracer.events tracer,
    Trace.Tracer.dropped tracer,
    Kernsim.Machine.events_dispatched b.Workloads.Setup.machine )

let event_str (e : Trace.Event.t) =
  Printf.sprintf "ts=%d cpu=%d %s" e.Trace.Event.ts e.Trace.Event.cpu
    (Trace.Event.name e.Trace.Event.kind)

let test_equiv (name, kind, driver) () =
  let slot_ev, slot_drop, slot_n = run_traced kind driver `Pid_heap in
  let heap_ev, heap_drop, heap_n = run_traced kind driver `Heap in
  Alcotest.(check int) "same trace length" (List.length heap_ev) (List.length slot_ev);
  Alcotest.(check int) "same ring drops" heap_drop slot_drop;
  List.iteri
    (fun i (h, s) ->
      if h <> s then
        Alcotest.failf "%s: event %d differs: heap [%s] vs slots [%s]" name i (event_str h)
          (event_str s))
    (List.combine heap_ev slot_ev);
  (* both backends remove a cancelled timer instead of dead-dispatching a
     tombstone, so they dispatch the same number of events *)
  Alcotest.(check int) "same dispatch count" heap_n slot_n

let () =
  Alcotest.run "core-equiv"
    [
      ( "wheel vs heap, full event stream",
        List.map
          (fun ((name, _, _) as row) -> Alcotest.test_case name `Quick (test_equiv row))
          matrix );
    ]
