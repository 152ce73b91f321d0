(* The per-module check table.

   Each cell is one check, written once as a function of a
   [Schedulers.Registry.entry].  Tier-1 runs every cell on every entry of
   [Schedulers.Registry.all], one alcotest group per entry, named by the
   entry, so one module's whole verdict is

     dune exec test/test_checks.exe -- test '^wfq$'

   A cell either runs on an entry or its [exempt] states why not.  A cell
   that needs an Enoki module fails on an entry that has none unless an
   exemption says why, so an entry added to the registry is held to every
   cell from its first run. *)

module R = Schedulers.Registry
module T = Kernsim.Task
module M = Kernsim.Machine

let check = Alcotest.check

let one_socket = Kernsim.Topology.one_socket

let build ?record (e : R.entry) =
  Workloads.Setup.build ?record ~topology:one_socket (Workloads.Setup.of_registry e)

let module_of (e : R.entry) =
  match R.enoki_module e with
  | Some m -> m
  | None ->
    Alcotest.failf "%s is not an Enoki module and the cell states no exemption for it" e.name

let violations (b : Workloads.Setup.built) =
  match b.enoki with Some c -> Enoki.Enoki_c.violations c | None -> 0

(* A property over generated workloads, one seed per run; the failure
   names the entry and the cell, and qcheck prints the seed it drew. *)
let property ~count name prop =
  let _, _, run =
    QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name QCheck.(int_bound 100_000) prop)
  in
  run ()

(* ---------- sanitizer-clean ---------- *)

(* The arbiter exemption, written once: a core arbiter dispatches its
   activations only once its runtime requests cores, so it runs the
   memcached runtime instead of the pipe, and it renounces work
   conservation and starvation freedom by design.  [memcached] adjusts
   the runtime's default parameters; the default shortens the run to
   100 + 400 ms. *)
let short_memcached (p : Workloads.Memcached.params) =
  { p with warmup = Kernsim.Time.ms 100; duration = Kernsim.Time.ms 400 }

let sanitized_workload ?(memcached = short_memcached) (e : R.entry) =
  let all = Trace.Sanitizer.default_config in
  if e.arbiter then
    ( (fun b ->
        ignore
          (Workloads.Memcached.run b
             (memcached
                (Workloads.Memcached.default_params ~mode:Workloads.Memcached.Arachne_enoki
                   ~load_kreqs:100. ())))),
      { all with Trace.Sanitizer.disabled = [ Trace.Sanitizer.Work_conservation; Starvation ] } )
  else
    ( (fun b ->
        let r = Workloads.Pipe_bench.run b ~messages:2_000 () in
        if not r.completed then Alcotest.failf "%s: the pipe did not complete" e.name),
      all )

(* The entry's sanitized workload on a machine of [kind] (the entry's
   own by default) behind a tracer and the sanitizer.  The returned [run]
   drives it, fails on any sanitizer finding, and answers whether an
   event of a given name was traced. *)
let sanitized ?memcached ?(topology = one_socket) ?call_budget ?kind (e : R.entry) =
  let workload, config = sanitized_workload ?memcached e in
  let nr_cpus = Kernsim.Topology.nr_cpus topology in
  let tracer = Trace.Tracer.create ~nr_cpus () in
  let s = Trace.Sanitizer.create ~config ~nr_cpus () in
  Trace.Sanitizer.attach s tracer;
  let traced = Hashtbl.create 8 in
  Trace.Tracer.subscribe tracer (fun ~ts:_ ~cpu:_ tag _ _ _ kind ->
      if tag = Trace.Event.T_cold then Hashtbl.replace traced (Trace.Event.name kind) ());
  let kind = Option.value kind ~default:(Workloads.Setup.of_registry e) in
  let b = Workloads.Setup.build ~tracer ?call_budget ~topology kind in
  let run () =
    workload b;
    check Alcotest.bool "events were checked" true (Trace.Sanitizer.events_seen s > 0);
    if not (Trace.Sanitizer.ok s) then
      Alcotest.failf "%s on %d cpus: %s" e.name nr_cpus (Trace.Sanitizer.report_string s);
    Hashtbl.mem traced
  in
  (b, tracer, s, run)

let sanitizer_clean ~cores (e : R.entry) =
  let topology =
    if cores = Kernsim.Topology.nr_cpus one_socket then one_socket
    else Kernsim.Topology.create ~cores ~cores_per_llc:cores ~cores_per_node:cores
  in
  let b, _, _, run = sanitized ~topology e in
  let (_ : string -> bool) = run () in
  check Alcotest.int "Enoki-C violations" 0 (violations b)

(* ---------- liveness over generated workloads ---------- *)

(* Every generated task finishes, with no Schedulable violation, and the
   cpu time consumed covers the compute demanded. *)
let tasks_finish (e : R.entry) seed =
  let b = build e in
  let rng = Stats.Prng.create ~seed in
  let pids, ch, total_work = Random_tasks.spawn b.machine ~policy:b.policy ~rng ~tasks:10 in
  M.run_for b.machine (Kernsim.Time.ms 400);
  Random_tasks.release b.machine ch;
  M.run_for b.machine (Kernsim.Time.ms 200);
  if violations b > 0 then
    QCheck.Test.fail_reportf "%s: %d Schedulable violations (seed %d)" e.name (violations b) seed;
  let unfinished = Random_tasks.unfinished b.machine pids in
  if unfinished <> [] then
    QCheck.Test.fail_reportf "%s: %d tasks never finished (seed %d): %s" e.name
      (List.length unfinished) seed (Random_tasks.describe b.machine unfinished);
  let consumed =
    List.fold_left (fun acc pid -> acc + (Option.get (M.find_task b.machine pid)).T.sum_exec) 0 pids
  in
  if consumed < !total_work then
    QCheck.Test.fail_reportf "%s: consumed %d < demanded %d (seed %d)" e.name consumed !total_work
      seed;
  true

(* ---------- record, stream, replay ---------- *)

(* The same deterministic run recorded into memory and streamed to a
   file gives byte-identical logs, and the log replays clean against the
   module that recorded it.  [run record] builds and drives the machine;
   the answer is what went wrong, if anything. *)
let record_stream_replay (e : R.entry) run =
  let m = module_of e in
  let mem = Enoki.Record.create ~capacity:(1 lsl 18) () in
  run mem;
  let mem_log = Enoki.Record.contents mem in
  let path = Filename.temp_file "checks" ".rec" in
  let file = Enoki.Record.create_file ~path ~capacity:(1 lsl 18) () in
  run file;
  Enoki.Record.close file;
  let file_log = Enoki.Record.load_file ~path in
  Sys.remove path;
  if Enoki.Replay.Private.parse file_log = [] then Some "empty log"
  else if mem_log <> file_log then Some "memory and file logs differ"
  else
    match (Enoki.Replay.run m ~log:file_log).Enoki.Replay.mismatches with
    | [] -> None
    | (entry, msg) :: _ as all ->
      Some
        (Printf.sprintf "replay diverged, %d mismatches, the first at entry %d: %s"
           (List.length all) entry msg)

let pipe b = ignore (Workloads.Pipe_bench.run b ~messages:1_000 ())

let record_pipe (e : R.entry) =
  record_stream_replay e (fun record -> pipe (build ~record e))
  |> Option.iter (Alcotest.failf "%s: %s" e.name)

(* Recording costs simulated time per call, so a module whose slice is
   shorter than the record cost of the calls it makes per slice (shinjuku)
   hardly progresses when recorded: the run stops after a budget of calls,
   a millisecond at a time. *)
let run_recorded (b : Workloads.Setup.built) ms =
  let c = Option.get b.enoki in
  for _ = 1 to ms do
    if Enoki.Enoki_c.calls c < 20_000 then M.run_for b.machine (Kernsim.Time.ms 1)
  done

let record_generated (e : R.entry) seed =
  record_stream_replay e (fun record ->
      let b = build ~record e in
      let rng = Stats.Prng.create ~seed in
      let _, ch, _ = Random_tasks.spawn b.machine ~policy:b.policy ~rng ~tasks:16 in
      run_recorded b 200;
      Random_tasks.release b.machine ch;
      run_recorded b 100)
  |> Option.iter (QCheck.Test.fail_reportf "%s (seed %d): %s" e.name seed);
  true

(* ---------- a live upgrade to itself under load ---------- *)

(* Three upgrades to the same module at random times under a generated
   workload: each transfers state and carries every live task, every task
   still finishes, and no Schedulable violation arises. *)
let upgrade_to_itself (e : R.entry) seed =
  let m = module_of e in
  let b = build e in
  let rng = Stats.Prng.create ~seed in
  let pids, ch, _ = Random_tasks.spawn b.machine ~policy:b.policy ~rng ~tasks:16 in
  let c = Option.get b.enoki in
  let problems = ref [] in
  for i = 1 to 3 do
    M.at b.machine
      ~delay:((i * Kernsim.Time.ms 1) + Stats.Prng.int rng (Kernsim.Time.ms 1))
      (fun () ->
        let alive = List.length (Random_tasks.unfinished b.machine pids) in
        match Enoki.Enoki_c.upgrade c m with
        | Ok s when s.Enoki.Upgrade.transferred && s.tasks_carried >= alive -> ()
        | Ok s ->
          problems :=
            Printf.sprintf "upgrade %d: transferred %b, carried %d of %d live tasks" i
              s.transferred s.tasks_carried alive
            :: !problems
        | Error exn ->
          problems :=
            Printf.sprintf "upgrade %d rejected: %s" i (Printexc.to_string exn) :: !problems)
  done;
  M.run_for b.machine (Kernsim.Time.ms 300);
  Random_tasks.release b.machine ch;
  M.run_for b.machine (Kernsim.Time.ms 200);
  (match Random_tasks.unfinished b.machine pids with
  | [] -> ()
  | lost ->
    problems :=
      Printf.sprintf "%d tasks never finished: %s" (List.length lost)
        (Random_tasks.describe b.machine lost)
      :: !problems);
  if violations b > 0 then
    problems := Printf.sprintf "%d Schedulable violations" (violations b) :: !problems;
  if !problems <> [] then
    QCheck.Test.fail_reportf "%s (seed %d): %s" e.name seed
      (String.concat "; " (List.rev !problems));
  true

(* ---------- fault isolation ---------- *)

(* A module bug does not take the kernel down.  Made to panic once, the
   module is quarantined and its tasks fail over to CFS.  Made to wedge
   past a 1 ms call budget, it is restored to the pristine module by a
   watchdog.  Under [panic] a core arbiter's runtime runs for its default
   300 + 1200 ms: the short run makes fewer than the 400 [task_wakeup]
   crossings the preset waits for. *)
let fault_isolation (e : R.entry) =
  let faulted ?memcached ?call_budget spec =
    let plan = Result.get_ok (Fault.Plan.parse spec) in
    let kind = Workloads.Setup.Enoki_sched (Fault.Inject.wrap ~seed:1 ~plan (module_of e)) in
    let b, tracer, s, run = sanitized ?memcached ?call_budget ~kind e in
    (Option.get b.enoki, tracer, s, run)
  in
  let c, _, _, run = faulted ~memcached:Fun.id "panic" in
  let traced = run () in
  let f = Enoki.Enoki_c.failover_stats c in
  check Alcotest.(pair int int) "panics, failovers" (1, 1) (f.panics, f.failovers);
  check Alcotest.bool "quarantined" true (f.quarantined <> None);
  check Alcotest.bool "blackout measured" true (f.blackout <> None);
  check Alcotest.(pair bool bool) "panic, failover traced" (true, true)
    (traced "panic", traced "failover");
  let c, tracer, s, run =
    faulted ~call_budget:(Kernsim.Time.ms 1) "wedge@pick_next_task:after=500"
  in
  let restores = ref 0 in
  let w =
    Fault.Watchdog.create ~sanitizer:s
      ~action:(fun ~reason:_ ~at:_ ->
        Enoki.Enoki_c.restore c ~pristine:(module_of e) (function
          | Ok _ -> incr restores
          | Error exn -> raise exn))
      ()
  in
  Fault.Watchdog.attach w tracer;
  let traced = run () in
  check Alcotest.bool "overruns" true ((Enoki.Enoki_c.failover_stats c).overruns >= 1);
  check Alcotest.bool "watchdog fired" true (Fault.Watchdog.fires w <> []);
  check Alcotest.bool "watchdog_fire traced" true (traced "watchdog_fire");
  check Alcotest.bool "restore ran" true (!restores >= 1);
  check Alcotest.bool "upgrade pause reported" true (Enoki.Enoki_c.upgrades c <> []);
  let (module P) = module_of e in
  check Alcotest.string "pristine module registered" P.name (Enoki.Enoki_c.scheduler_name c)

(* ---------- golden digests ---------- *)

(* md5s of deterministic artefacts: the ftrace export of a short pipe and
   a short schbench run, and for an Enoki module the record log of each
   run and the ftrace export of a pipe run under the [panic] and [chaos]
   fault plans.  They pin the exact decision stream, so a refactor of a
   module's data structures must leave every one unchanged.  A deliberate
   behaviour change regenerates them: the failure prints the new digest. *)

let short_schbench =
  {
    (Workloads.Schbench.default_params ()) with
    warmup = Kernsim.Time.ms 20;
    duration = Kernsim.Time.ms 100;
  }

let schbench b = ignore (Workloads.Schbench.run b short_schbench)

let golden_runs (e : R.entry) =
  let kind = Workloads.Setup.of_registry e in
  let base =
    [ ("pipe", Golden.ftrace_digest kind pipe); ("schbench", Golden.ftrace_digest kind schbench) ]
  in
  match R.enoki_module e with
  | None -> base
  | Some m ->
    let record_digest run =
      let record = Enoki.Record.create () in
      run (build ~record e);
      Digest.to_hex (Digest.string (Enoki.Record.contents record))
    in
    let faulted preset =
      let plan = Result.get_ok (Fault.Plan.parse preset) in
      Golden.ftrace_digest (Workloads.Setup.Enoki_sched (Fault.Inject.wrap ~seed:11 ~plan m)) pipe
    in
    base
    @ [
        ("record", record_digest schbench);
        ("pipe-record", record_digest pipe);
        ("panic", faulted "panic");
        ("chaos", faulted "chaos");
      ]

let golden =
  [
    ("cfs/pipe", "c1973124b4821cb8e90855d4eb6bc626");
    ("cfs/schbench", "e0cfd1268054501e7c88409d33b99ff9");
    ("fifo/pipe", "604a728b211efb227247e75f5ce5e19d");
    ("fifo/schbench", "128ef7927b7731698aad6728e1659004");
    ("fifo/record", "21af4ad8c5a10a5011808cd5850db9d4");
    ("fifo/pipe-record", "f5fa34f77232d1a4f306ccc53c09a323");
    ("fifo/panic", "903e0aa6b16200716ac1bf3a0efcaf58");
    ("fifo/chaos", "f7333208962d9543a5e7e2cf3b9a3622");
    ("wfq/pipe", "5e2cda63bdefc61a579baa17f350374f");
    ("wfq/schbench", "bfb80a8db2c2611375115efa8b9dd369");
    ("wfq/record", "19946ccec52c39b5dcbc9a1ce60352c9");
    ("wfq/pipe-record", "b44145fed7d8074d8bad70c98d742e40");
    ("wfq/panic", "1136819548b6030310d8733a616dfff1");
    ("wfq/chaos", "e9aa78ed54602b173af5597e7e0c3e54");
    ("shinjuku/pipe", "ba1793002ed67121918faf7c2986af93");
    ("shinjuku/schbench", "414fdf5a6bc3319c9ea90931feff16b2");
    ("shinjuku/record", "050a659cf44d4e52cffddbf7825b2693");
    ("shinjuku/pipe-record", "376c86a16a93df21833bcc9b3cfd1491");
    ("shinjuku/panic", "df847da7d5747efbcd3721ea1590867e");
    ("shinjuku/chaos", "402599d1acc2bcc949925ca1420f45b3");
    ("locality/pipe", "06899849a5f0b686d44cd18504fa6dd5");
    ("locality/schbench", "132fe4877ddeb265605771372059a58f");
    ("locality/record", "a1c62516128046a3a23cd66edf747360");
    ("locality/pipe-record", "14c7b4c1c52dae71485814ffe8023c77");
    ("locality/panic", "ae6f01d5d748deb95ff710d5280f5f84");
    ("locality/chaos", "4d9e3c7846639aecb6972a7532a9ec0e");
    ("arachne/pipe", "eabd12cf99d1906dc7245179ba7d24d2");
    ("arachne/schbench", "89911c4ca55600a9fea436e24f116511");
    ("arachne/record", "75f52eada0ba59a026568ca0ca06c42b");
    ("arachne/pipe-record", "a58897d50d5aa25f0773f67cb9e1291e");
    ("arachne/panic", "eabd12cf99d1906dc7245179ba7d24d2");
    ("arachne/chaos", "748f98905f6eb2100339aa40b0ceec8b");
    ("edf/pipe", "49a0e733fb61e2fb332bb22d4c1b1acb");
    ("edf/schbench", "72df836bf39490075c1c7d96a2cb8446");
    ("edf/record", "a9e32d5e680c123a00a7731fa0dccd39");
    ("edf/pipe-record", "2187627f644e82c5585cc0da5fe770be");
    ("edf/panic", "3cf49ad539da1a5942fdc0b621bd5f9c");
    ("edf/chaos", "f84b76026823b5e6fa64792ea1be17f1");
    ("nest/pipe", "41a83e059562e1873227b22d2b5518cc");
    ("nest/schbench", "1cf60239f319f347cb5b9dfc03b67fec");
    ("nest/record", "62f66cfa5297991ce5f15e3109b87cfb");
    ("nest/pipe-record", "2d6e043eaa75ba84843069b4a8ffcf2a");
    ("nest/panic", "d76d091d8a923044d701e02a8cc59450");
    ("nest/chaos", "83e65010cef998b63eec3a59320ade94");
    ("rt-fifo/pipe", "49a0e733fb61e2fb332bb22d4c1b1acb");
    ("rt-fifo/schbench", "9f6b3ef5f2e5f98449ab5b30978fc690");
    ("rt-fifo/record", "64d8382a0daca4a4ee4d5fa5fee95704");
    ("rt-fifo/pipe-record", "2187627f644e82c5585cc0da5fe770be");
    ("rt-fifo/panic", "3cf49ad539da1a5942fdc0b621bd5f9c");
    ("rt-fifo/chaos", "4415f7dd79e6a21216353d37a843c236");
    ("scx-simple/pipe", "3f9071015bd7b163b64470c0d8d59638");
    ("scx-simple/schbench", "cb8825ee9e65562af79cde0a867a7735");
    ("scx-simple/record", "5b555b2dc3a2743e847b9c6b8f2f331c");
    ("scx-simple/pipe-record", "bbbf7cb17fa1dd0b42fa7ed31b86967c");
    ("scx-simple/panic", "b4724a87687c06016d7a3bda685b5882");
    ("scx-simple/chaos", "1eb10d74e30ab9565760afe45152495b");
    ("scx-rr/pipe", "8142452a8467d186ca4506a775e92aec");
    ("scx-rr/schbench", "8a18e26fc717ec1a4880884455f76683");
    ("scx-rr/record", "f05cc3ba75136a31dbf0aeb1e260c2bc");
    ("scx-rr/pipe-record", "2ecfb5c22a83998fe4d0c17b965ca25c");
    ("scx-rr/panic", "3622c207b0d8f69c2c0fca1a50341b44");
    ("scx-rr/chaos", "7283efb2ca0b32dc0e644409508e15ca");
    ("scx-prio-dq/pipe", "110635e91a46df5e57ad5b704f944195");
    ("scx-prio-dq/schbench", "b3c75e5ba39f3134473f93b651817b80");
    ("scx-prio-dq/record", "506b3b2095de6d019446d6cd612a53de");
    ("scx-prio-dq/pipe-record", "9ac6ffe061d7d589e80c0a6451d57880");
    ("scx-prio-dq/panic", "eed5b76a86dc8d133441c2b03de9a8ec");
    ("scx-prio-dq/chaos", "fe350fa41edec2f14c789836b5615c48");
    ("ghost-sol/pipe", "72f146fed464db40f25a4726c3af08e7");
    ("ghost-sol/schbench", "212561a5cd695a6306ab557dccb19307");
    ("ghost-fifo/pipe", "7f0a37123950462da3f9e716500ed736");
    ("ghost-fifo/schbench", "132e8832bd432a5709ccae0ef918608b");
    ("ghost-shinjuku/pipe", "949cb421238aa0fd633e0e1d2664afad");
    ("ghost-shinjuku/schbench", "91b126a211824476a9c91f5bd3d256f6");
  ]

let goldens_unchanged (e : R.entry) =
  let missing =
    List.filter_map
      (fun (run, got) ->
        let label = e.name ^ "/" ^ run in
        match List.assoc_opt label golden with
        | Some want ->
          check Alcotest.string label want got;
          None
        | None -> Some (Printf.sprintf "    (%S, %S);" label got))
      (golden_runs e)
  in
  if missing <> [] then Alcotest.failf "no golden digest for:\n%s" (String.concat "\n" missing)

(* ---------- an observed run is unchanged ---------- *)

(* The tracer, a metrics registry and the profiler, attached at once,
   leave the golden pipe's decision stream as it was, and what they
   export agrees with the simulator's own counts. *)
let observed_unchanged (e : R.entry) =
  let tracer = Trace.Tracer.create ~nr_cpus:(Kernsim.Topology.nr_cpus one_socket) () in
  let registry = Metrics.Registry.create () and profile = Profile.create () in
  let b =
    Workloads.Setup.build ~tracer ~registry ~profile ~topology:one_socket
      (Workloads.Setup.of_registry e)
  in
  pipe b;
  check Alcotest.string "ftrace md5 = the pipe golden"
    (List.assoc (e.name ^ "/pipe") golden)
    (Golden.digest ~label:e.name tracer);
  let count h = Stats.Histogram.count h in
  check Alcotest.int "sched_wakeup_latency_ns count = Accounting's"
    (count (Kernsim.Accounting.wakeup_latency (M.metrics b.machine)))
    (count (Option.get (Metrics.Registry.find_histogram registry "sched_wakeup_latency_ns")));
  let total = ref 0 in
  Metrics.Registry.iter registry (fun ~name ~help:_ -> function
    | Metrics.Registry.Counter_v n when name = "enoki_calls_total" -> total := n
    | _ -> ());
  let calls = match b.enoki with Some c -> Enoki.Enoki_c.calls c | None -> 0 in
  check Alcotest.(pair int int) "Profile.crossings, enoki_calls_total = Enoki_c.calls"
    (calls, calls) (Profile.crossings profile, !total)

(* ---------- the table ---------- *)

type check =
  | Once of (R.entry -> unit)
  | Seeds of int * (R.entry -> int -> bool)  (** a property over this many generated workloads *)

type exemption =
  | Skip of string  (** the cell has nothing to run on this entry, and why *)
  | Fails_on of int * string
      (** a known failure: the cell must still fail on this seed, so the
          exemption goes when the fault is mended *)

type cell = { name : string; check : check; exempt : R.entry -> exemption option }

let not_a_module (e : R.entry) =
  match e.kind with
  | Builtin_cfs | Ghost _ ->
    Some
      (Skip
         "the built-in CFS class and the ghOSt models are not Enoki modules: no record log, \
          no live upgrade")
  | Enoki _ -> None

let arbiter (e : R.entry) =
  if e.arbiter then
    Some
      (Skip
         "a core arbiter runs its tasks only as activations a runtime asks cores for, so \
          generated tasks never run")
  else None

(* edf and nest read [ctx.now ()], which the record log does not carry,
   so an honest replay diverges: see ROADMAP, "Time in the record log". *)
let reads_the_clock (e : R.entry) =
  let diverges seed first =
    Some (Fails_on (seed, Printf.sprintf "reads the clock: seed %d diverges first at %s" seed first))
  in
  match e.name with
  | "edf" -> diverges 0 "entry 157, balance: recorded pid 6, replayed none"
  | "nest" -> diverges 0 "entry 15541, select_task_rq: recorded 0, replayed 3"
  | _ -> None

let any exemptions e = List.find_map (fun f -> f e) exemptions

let cells =
  let cell ?(exempt = []) name check = { name; check; exempt = any exempt } in
  [
    cell "sanitizer-clean, 8-cpu machine" (Once (sanitizer_clean ~cores:8));
    cell "sanitizer-clean, 80-cpu machine" (Once (sanitizer_clean ~cores:80));
    cell "liveness" (Seeds (25, tasks_finish)) ~exempt:[ arbiter ];
    cell "record, stream, replay: pipe" (Once record_pipe) ~exempt:[ not_a_module ];
    cell "record, stream, replay: generated" (Seeds (5, record_generated))
      ~exempt:[ not_a_module; reads_the_clock ];
    cell "upgrade to itself under load" (Seeds (10, upgrade_to_itself))
      ~exempt:[ not_a_module; arbiter ];
    cell "fault isolation" (Once fault_isolation) ~exempt:[ not_a_module ];
    cell "goldens" (Once goldens_unchanged);
    cell "observed run unchanged" (Once observed_unchanged);
  ]

let run_cell (e : R.entry) c () =
  match (c.exempt e, c.check) with
  | None, Once f -> f e
  | None, Seeds (count, prop) -> property ~count (e.name ^ ": " ^ c.name) (prop e)
  | Some (Skip why), _ -> print_endline ("exempt: " ^ why)
  | Some (Fails_on (seed, why)), Seeds (_, prop) ->
    if match prop e seed with ok -> ok | exception _ -> false then
      Alcotest.failf "%s: %s passes on seed %d, so its exemption is stale: %s" e.name c.name seed
        why
    else print_endline ("exempt: " ^ why)
  | Some (Fails_on _), Once _ -> Alcotest.failf "%s: a known failure needs a seeded cell" c.name

let () =
  Alcotest.run "checks"
    (List.map
       (fun (e : R.entry) ->
         (e.name, List.map (fun c -> Alcotest.test_case c.name `Quick (run_cell e c)) cells))
       R.all)
