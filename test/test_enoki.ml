(* Tests for the Enoki framework (lib/core): capabilities, messages, locks,
   dispatch, live upgrade, hints, record/replay. *)

module T = Kernsim.Task
module M = Kernsim.Machine
module Sched = Enoki.Schedulable

let check = Alcotest.check

(* ---------- Schedulable ---------- *)

let test_schedulable_fields () =
  let s = Sched.Private.create ~pid:7 ~cpu:2 ~gen:5 in
  check Alcotest.int "pid" 7 (Sched.pid s);
  check Alcotest.int "cpu" 2 (Sched.cpu s);
  check Alcotest.int "gen" 5 (Sched.generation s);
  check Alcotest.bool "a token is not none" false (Sched.is_none s);
  check Alcotest.string "describe" "sched(pid=7 cpu=2 gen=5)" (Sched.Private.describe s);
  check Alcotest.bool "none" true (Sched.is_none Sched.none);
  check Alcotest.(list int) "none's fields" [ -1; -1; -1 ]
    Sched.[ pid none; cpu none; generation none ];
  check Alcotest.string "describe none" "sched(none)" (Sched.Private.describe Sched.none);
  (* a field that does not fit is rejected, never packed into another token *)
  List.iter
    (fun (what, pid, cpu, gen) ->
      match Sched.Private.create ~pid ~cpu ~gen with
      | _ -> Alcotest.failf "%s: accepted" what
      | exception Invalid_argument _ -> ())
    [
      ("pid too large", Sched.Private.max_pid + 1, 0, 1);
      ("negative pid", -1, 0, 1);
      ("cpu too large", 1, Sched.Private.max_cpu + 1, 1);
      ("negative cpu", 1, -1, 1);
      ("generation too large", 1, 0, Sched.Private.max_generation + 1);
      ("negative generation", 1, 0, -1);
    ];
  (* a generation overflowing its width wraps back to 1, never to 0 *)
  check Alcotest.int "next generation" 8 (Sched.Private.next_generation 7);
  check Alcotest.int "generation wraps" 1 (Sched.Private.next_generation Sched.Private.max_generation)

(* ---------- Message wire form ---------- *)

let roundtrip_call c =
  let buf = Buffer.create 64 in
  Enoki.Message.put_call buf c;
  let cur = Enoki.Wire.cursor (Buffer.contents buf) in
  let c' = Enoki.Message.get_call cur in
  check Alcotest.bool "call consumed exactly" true (Enoki.Wire.at_end cur);
  check Alcotest.string "call roundtrip" (Enoki.Message.string_of_call c)
    (Enoki.Message.string_of_call c')

let test_message_roundtrips () =
  let s = Sched.Private.create ~pid:3 ~cpu:1 ~gen:9 in
  List.iter roundtrip_call
    [
      Get_policy;
      Pick_next_task { cpu = 2; curr = Sched.none; curr_runtime = 0 };
      Pick_next_task { cpu = 2; curr = s; curr_runtime = 123 };
      Pnt_err { cpu = 1; pid = 3; err = "wrong_cpu"; sched = s };
      Task_dead { pid = 42 };
      Task_blocked { pid = 1; runtime = 555; cpu = 3 };
      Task_wakeup { pid = 1; runtime = 10; waker_cpu = 0; sched = s };
      Task_new { pid = 1; runtime = 0; prio = -20; sched = s };
      Task_preempt { pid = 1; runtime = 99; cpu = 2; sched = s };
      Task_yield { pid = 1; runtime = 98; cpu = 2; sched = s };
      Task_departed { pid = 5; cpu = 0 };
      Task_affinity_changed { pid = 5; allowed = [ 1; 2; 3 ] };
      Task_affinity_changed { pid = 5; allowed = [] };
      Task_prio_changed { pid = 5; prio = 10 };
      Task_tick { cpu = 7; queued = true };
      Select_task_rq { pid = 9; waker_cpu = 4; allowed = [ 0; 1 ] };
      Migrate_task_rq { pid = 9; from_cpu = 1; sched = s };
      Balance { cpu = 6 };
      Balance_err { cpu = 6; pid = 9; sched = Sched.none };
      Pnt_err { cpu = 0; pid = 2; err = "bad => cpu\n%"; sched = Sched.none };
      Parse_hint { pid = 4; hint = Enoki.Hint_codec.Opaque "a b\nc" };
    ]

let test_reply_roundtrips () =
  let s = Sched.Private.create ~pid:3 ~cpu:1 ~gen:9 in
  List.iter
    (fun r ->
      let buf = Buffer.create 16 in
      Enoki.Message.put_reply buf r;
      let cur = Enoki.Wire.cursor (Buffer.contents buf) in
      let r' = Enoki.Message.get_reply cur in
      check Alcotest.bool "reply consumed exactly" true (Enoki.Wire.at_end cur);
      check Alcotest.string "reply roundtrip" (Enoki.Message.string_of_reply r)
        (Enoki.Message.string_of_reply r'))
    [ R_unit; R_int 5; R_int (-3); R_pid_opt (-1); R_pid_opt 8; R_sched_opt Sched.none;
      R_sched_opt s ]

let test_reply_matching () =
  let s1 = Sched.Private.create ~pid:3 ~cpu:1 ~gen:9 in
  let s2 = Sched.Private.create ~pid:3 ~cpu:1 ~gen:22 in
  let s3 = Sched.Private.create ~pid:4 ~cpu:1 ~gen:9 in
  check Alcotest.bool "same pid+cpu matches despite gen" true
    (Enoki.Message.reply_matches (R_sched_opt s1) (R_sched_opt s2));
  check Alcotest.bool "different pid mismatch" false
    (Enoki.Message.reply_matches (R_sched_opt s1) (R_sched_opt s3));
  check Alcotest.bool "none vs a token mismatch" false
    (Enoki.Message.reply_matches (R_sched_opt Sched.none) (R_sched_opt s1));
  check Alcotest.bool "none matches none" true
    (Enoki.Message.reply_matches (R_sched_opt Sched.none) (R_sched_opt Sched.none));
  check Alcotest.bool "unit vs int mismatch" false
    (Enoki.Message.reply_matches R_unit (R_int 0))

let test_decode_failure () =
  let get f bytes = f (Enoki.Wire.cursor bytes) in
  (match get Enoki.Message.get_call "\xff" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure on an unknown call opcode");
  (match get Enoki.Message.get_reply "\x09" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure on an unknown reply tag");
  (* a pid reply whose varint overflows to a negative int *)
  (match get Enoki.Message.get_reply "\x02\x01\xff\xff\xff\xff\xff\xff\xff\xff\x7f" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure on a negative pid reply");
  (* pick_next_task's opcode with its fields missing *)
  match get Enoki.Message.get_call "\x01" with
  | exception Enoki.Wire.Truncated -> ()
  | _ -> Alcotest.fail "expected Truncated on a short call"

(* ---------- Hint codec ---------- *)

let hint_roundtrip h =
  let name, payload = Enoki.Hint_codec.encode_parts h in
  Enoki.Hint_codec.decode_parts ~name ~payload

let test_hint_codec () =
  Schedulers.Hints.register_codecs ();
  (match hint_roundtrip (Schedulers.Hints.Locality { pid = 12; group = 3 }) with
  | Schedulers.Hints.Locality { pid; group } ->
    check Alcotest.int "pid" 12 pid;
    check Alcotest.int "group" 3 group
  | _ -> Alcotest.fail "decoded to wrong constructor");
  match hint_roundtrip (Schedulers.Hints.Core_request { pid = 4; cores = 6 }) with
  | Schedulers.Hints.Core_request { pid; cores } ->
    check Alcotest.int "pid" 4 pid;
    check Alcotest.int "cores" 6 cores
  | _ -> Alcotest.fail "core_request roundtrip failed"

let test_hint_codec_opaque () =
  (* unregistered hints survive as opaque strings *)
  match Enoki.Hint_codec.decode_parts ~name:"nosuchcodec" ~payload:"payload" with
  | Enoki.Hint_codec.Opaque s -> check Alcotest.string "payload" "payload" s
  | _ -> Alcotest.fail "expected Opaque"

(* ---------- Lock ---------- *)

(* an owner whose observer logs every event as kernel thread [tid] *)
let logging_owner ~tid =
  let events = ref [] in
  let observe op ~lock_id = events := { Enoki.Lock.lock_id; op; tid } :: !events in
  (Enoki.Lock.owner (Some observe), events)

let test_lock_passthrough () =
  let l = Enoki.Lock.create (Enoki.Lock.owner None) in
  check Alcotest.int "with_lock result" 42 (Enoki.Lock.with_lock l (fun () -> 42))

let test_lock_record_events () =
  let owner, events = logging_owner ~tid:3 in
  let l = Enoki.Lock.create owner in
  ignore (Enoki.Lock.with_lock l (fun () -> 1));
  let evs = List.rev !events in
  check Alcotest.int "three events" 3 (List.length evs);
  (match evs with
  | [ a; b; c ] ->
    check Alcotest.bool "create" true (a.Enoki.Lock.op = Enoki.Lock.Create);
    check Alcotest.bool "acquire" true (b.Enoki.Lock.op = Enoki.Lock.Acquire);
    check Alcotest.bool "release" true (c.Enoki.Lock.op = Enoki.Lock.Release);
    check Alcotest.int "tid recorded" 3 b.Enoki.Lock.tid
  | _ -> Alcotest.fail "expected 3 events");
  (* ids count per owner: another owner's locks do not move them *)
  let other = Enoki.Lock.owner None in
  ignore (Enoki.Lock.create other);
  check Alcotest.(list int) "ids from 0 per owner" [ 1; 1 ]
    [ Enoki.Lock.Private.id (Enoki.Lock.create owner); Enoki.Lock.Private.id (Enoki.Lock.create other) ]

(* [balance] answers the cpu of the previous [balance] call (-1 for the
   first), so a replay's replies match the recording only if its calls
   run in the order they were recorded *)
module Last_balancer = struct
  include Schedulers.Fifo_sched

  let order = ref []

  let create ctx =
    order := [];
    Schedulers.Fifo_sched.create ctx

  let balance _ ~cpu =
    let prev = match !order with c :: _ -> c | [] -> -1 in
    order := cpu :: !order;
    prev
end

let test_lock_replay_order () =
  (* kernel threads 2 and 1 take one lock in the order 2;1;2: a log-order
     replay runs their calls in that order, with no admission machinery *)
  let record = Enoki.Record.create () in
  let tap op tid = Enoki.Record.tap_lock record { Enoki.Lock.lock_id = 0; op; tid } in
  tap Enoki.Lock.Create 0;
  ignore
    (List.fold_left
       (fun prev tid ->
         tap Enoki.Lock.Acquire tid;
         Enoki.Record.tap_call record ~tid (Enoki.Message.Balance { cpu = tid })
           (Enoki.Message.R_pid_opt prev);
         tap Enoki.Lock.Release tid;
         tid)
       (-1) [ 2; 1; 2 ]);
  let report = Enoki.Replay.run (module Last_balancer) ~log:(Enoki.Record.contents record) in
  check Alcotest.(list (pair int string)) "replies matched" [] report.Enoki.Replay.mismatches;
  check Alcotest.int "two kernel threads" 2 report.Enoki.Replay.threads;
  check Alcotest.(list int) "recorded order replayed" [ 2; 1; 2 ] (List.rev !Last_balancer.order)

(* [Lock.locked] with a closed function: no closure, no allocation *)
let add_into acc a b c d = acc := !acc + a + b + c + d

let test_locked_passthrough_allocates_nothing () =
  let l = Enoki.Lock.create (Enoki.Lock.owner None) in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Enoki.Lock.locked l add_into acc i 1 1 1
  done;
  let words = Gc.minor_words () -. before in
  check Alcotest.int "body ran every time" ((10_000 * 10_001 / 2) + 30_000) !acc;
  check (Alcotest.float 0.0) "minor words" 0.0 words

(* with an observer the body still runs with no closure around it *)
let test_locked_tap_allocates_nothing () =
  let taps = ref 0 in
  let l = Enoki.Lock.create (Enoki.Lock.owner (Some (fun _ ~lock_id:_ -> incr taps))) in
  check Alcotest.int "create observed" 1 !taps;
  taps := 0;
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Enoki.Lock.locked l add_into acc i 1 1 1
  done;
  let words = Gc.minor_words () -. before in
  check Alcotest.int "acquire and release tapped" 20_000 !taps;
  check (Alcotest.float 0.0) "minor words" 0.0 words

let raise_exit () () () () () = raise Exit

let test_locked_tap_pairs_on_raise () =
  let seen = ref [] in
  let l =
    Enoki.Lock.create
      (Enoki.Lock.owner
         (Some (fun op ~lock_id -> seen := (Enoki.Lock.op_name op, lock_id) :: !seen)))
  in
  seen := [];
  let raised =
    match Enoki.Lock.locked l raise_exit () () () () () with
    | () -> false
    | exception Exit -> true
  in
  check Alcotest.bool "body's exception propagates" true raised;
  check
    Alcotest.(list (pair string int))
    "acquire then release" [ ("acquire", Enoki.Lock.Private.id l); ("release", Enoki.Lock.Private.id l) ]
    (List.rev !seen)

let sum5 s a b c d = s + a + b + c + d

let test_locked_records_like_with_lock () =
  let recorded f =
    let owner, events = logging_owner ~tid:5 in
    let r = f (Enoki.Lock.create owner) in
    ( r,
      List.rev_map
        (fun (e : Enoki.Lock.event) -> (Enoki.Lock.op_name e.op, e.lock_id, e.tid))
        !events )
  in
  let via_with_lock = recorded (fun l -> Enoki.Lock.with_lock l (fun () -> sum5 3 1 1 1 1)) in
  let via_locked = recorded (fun l -> Enoki.Lock.locked l sum5 3 1 1 1 1) in
  check Alcotest.int "three events" 3 (List.length (snd via_locked));
  check
    Alcotest.(pair int (list (triple string int int)))
    "same result, same log" via_with_lock via_locked

(* Two machines in one domain: each module's locks report to its own
   recorder and tracer, whatever the other machine does. *)
let wfq_pipe ?record ?tracer () =
  Workloads.Setup.build ?record ?tracer ~topology:Kernsim.Topology.one_socket
    (Workloads.Setup.Enoki_sched (module Schedulers.Wfq))

let run_pipe b = ignore (Workloads.Pipe_bench.run b ~messages:200 ())

let test_record_log_not_grown_by_later_machine () =
  let solo = Enoki.Record.create () in
  run_pipe (wfq_pipe ~record:solo ());
  let record = Enoki.Record.create () in
  run_pipe (wfq_pipe ~record ());
  run_pipe (wfq_pipe ());
  check Alcotest.int "same event count as a solo run" (Enoki.Record.length solo)
    (Enoki.Record.length record);
  check Alcotest.bool "same bytes as a solo run" true
    (String.equal (Enoki.Record.contents solo) (Enoki.Record.contents record))

let lock_acquires tracer =
  List.length
    (List.filter
       (fun (ev : Trace.Event.t) ->
         match ev.kind with Trace.Event.Lock_acquire _ -> true | _ -> false)
       (Trace.Tracer.events tracer))

let test_traced_machine_keeps_lock_events () =
  let nr_cpus = Kernsim.Topology.nr_cpus Kernsim.Topology.one_socket in
  let solo = Trace.Tracer.create ~nr_cpus () in
  run_pipe (wfq_pipe ~tracer:solo ());
  let tracer = Trace.Tracer.create ~nr_cpus () in
  let traced = wfq_pipe ~tracer () in
  ignore (wfq_pipe ());
  run_pipe traced;
  let expected = lock_acquires solo in
  check Alcotest.bool "a solo run traces lock acquires" true (expected > 0);
  check Alcotest.int "same lock acquires as a solo run" expected (lock_acquires tracer)

(* ---------- Enoki_c end-to-end on a machine ---------- *)

let build_fifo ?record () =
  Workloads.Setup.build ?record ~topology:Kernsim.Topology.one_socket
    (Workloads.Setup.Enoki_sched (module Schedulers.Fifo_sched))

let one_shot compute =
  let done_ = ref false in
  fun (_ : T.ctx) ->
    if !done_ then T.exit
    else begin
      done_ := true;
      T.compute compute
    end

let test_enoki_runs_tasks () =
  let b = build_fifo () in
  let pids =
    List.init 4 (fun i ->
        M.spawn b.machine
          { (T.default_spec ~name:(Printf.sprintf "t%d" i) (one_shot (Kernsim.Time.ms 2))) with
            T.policy = b.policy })
  in
  M.run_for b.machine (Kernsim.Time.ms 50);
  List.iter
    (fun pid ->
      let task = Option.get (M.find_task b.machine pid) in
      check Alcotest.bool "task completed under enoki fifo" true (task.T.state = T.Dead))
    pids;
  match b.enoki with
  | Some e ->
    check Alcotest.bool "dispatches happened" true (Enoki.Enoki_c.calls e > 0);
    check Alcotest.int "no violations" 0 (Enoki.Enoki_c.violations e)
  | None -> Alcotest.fail "expected enoki handle"

let test_enoki_coexists_with_cfs () =
  (* enoki tasks and cfs tasks share the machine; enoki cedes idle cycles *)
  let b = build_fifo () in
  let epid =
    M.spawn b.machine
      { (T.default_spec ~name:"enoki-task" (one_shot (Kernsim.Time.ms 1))) with T.policy = b.policy }
  in
  let cpid =
    M.spawn b.machine
      { (T.default_spec ~name:"cfs-task" (one_shot (Kernsim.Time.ms 1))) with
        T.policy = b.cfs_policy }
  in
  M.run_for b.machine (Kernsim.Time.ms 20);
  check Alcotest.bool "enoki task done" true
    ((Option.get (M.find_task b.machine epid)).T.state = T.Dead);
  check Alcotest.bool "cfs task done" true
    ((Option.get (M.find_task b.machine cpid)).T.state = T.Dead)

(* a scheduler that deliberately returns a wrong-cpu Schedulable once, to
   exercise the pnt_err path *)
module Bad_sched = struct
  type t = {
    inner : Schedulers.Fifo_sched.t;
    mutable sabotage_left : int;
    mutable stash : Sched.t; (* the real token kept during sabotage, or none *)
    mutable pnt_errs : int;
  }

  let name = "bad"

  let create ctx =
    {
      inner = Schedulers.Fifo_sched.create ctx;
      sabotage_left = 1;
      stash = Sched.none;
      pnt_errs = 0;
    }

  let get_policy t = Schedulers.Fifo_sched.get_policy t.inner

  let pick_next_task t ~cpu ~curr ~curr_runtime =
    let tok = Schedulers.Fifo_sched.pick_next_task t.inner ~cpu ~curr ~curr_runtime in
    if t.sabotage_left > 0 && Sched.cpu tok = cpu then begin
      t.sabotage_left <- t.sabotage_left - 1;
      t.stash <- tok;
      (* forge a token claiming a different core: must be rejected *)
      Sched.Private.create ~pid:(Sched.pid tok) ~cpu:(cpu + 1) ~gen:(Sched.generation tok)
    end
    else tok

  let pnt_err t ~cpu ~pid ~err ~sched =
    t.pnt_errs <- t.pnt_errs + 1;
    ignore (err, sched);
    (* recover: hand the stashed real token back to the queue *)
    let tok = t.stash in
    if not (Sched.is_none tok) then begin
      t.stash <- Sched.none;
      Schedulers.Fifo_sched.pnt_err t.inner ~cpu ~pid ~err:"recovered" ~sched:tok
    end

  let task_dead t = Schedulers.Fifo_sched.task_dead t.inner

  let task_blocked t = Schedulers.Fifo_sched.task_blocked t.inner

  let task_wakeup t = Schedulers.Fifo_sched.task_wakeup t.inner

  let task_new t = Schedulers.Fifo_sched.task_new t.inner

  let task_preempt t = Schedulers.Fifo_sched.task_preempt t.inner

  let task_yield t = Schedulers.Fifo_sched.task_yield t.inner

  let task_departed t = Schedulers.Fifo_sched.task_departed t.inner

  let task_affinity_changed t = Schedulers.Fifo_sched.task_affinity_changed t.inner

  let task_prio_changed t = Schedulers.Fifo_sched.task_prio_changed t.inner

  let task_tick t = Schedulers.Fifo_sched.task_tick t.inner

  let select_task_rq t = Schedulers.Fifo_sched.select_task_rq t.inner

  let migrate_task_rq t = Schedulers.Fifo_sched.migrate_task_rq t.inner

  let balance t = Schedulers.Fifo_sched.balance t.inner

  let balance_err t = Schedulers.Fifo_sched.balance_err t.inner

  let reregister_prepare _ = None

  let reregister_init ctx _ = create ctx

  let parse_hint t = Schedulers.Fifo_sched.parse_hint t.inner
end

let test_schedulable_violation_recovered () =
  let b =
    Workloads.Setup.build ~topology:Kernsim.Topology.one_socket
      (Workloads.Setup.Enoki_sched (module Bad_sched))
  in
  let pid =
    M.spawn b.machine
      { (T.default_spec ~name:"victim" (one_shot (Kernsim.Time.ms 1))) with T.policy = b.policy }
  in
  M.run_for b.machine (Kernsim.Time.ms 50);
  let e = Option.get b.enoki in
  check Alcotest.bool "violation detected" true (Enoki.Enoki_c.violations e >= 1);
  check Alcotest.bool "wrong_cpu classified" true
    (List.mem_assoc "wrong_cpu" (Enoki.Enoki_c.violation_breakdown e));
  (* the task must still complete: pnt_err returned ownership and the
     scheduler recovered *)
  check Alcotest.bool "task survived the bad pick" true
    ((Option.get (M.find_task b.machine pid)).T.state = T.Dead)

(* ---------- the crossing itself, driven without a machine ---------- *)

(* A module that allocates nothing: every callback returns a constant or
   one of its arguments.  While [tick_panic] is [Some ns], [task_tick]
   charges [ns] through the context and then raises.  [pick_next_task]
   returns [pick_reply], and [held] is the last token any hook handed it. *)
exception Boom

let tick_panic = ref None

let pick_reply = ref Sched.none

let held = ref Sched.none

module Null_sched = struct
  type t = { ctx : Enoki.Ctx.t }

  include Enoki.Sched_trait.Defaults (struct
    type nonrec t = t
  end)

  let name = "null"

  let create ctx = { ctx }

  let get_policy _ = 0

  let pick_next_task _ ~cpu:_ ~curr:_ ~curr_runtime:_ = !pick_reply

  let task_dead _ ~pid:_ = ()

  let task_blocked _ ~pid:_ ~runtime:_ ~cpu:_ = ()

  let task_wakeup _ ~pid:_ ~runtime:_ ~waker_cpu:_ ~sched = held := sched

  let task_new _ ~pid:_ ~runtime:_ ~prio:_ ~sched = held := sched

  let task_preempt _ ~pid:_ ~runtime:_ ~cpu:_ ~sched = held := sched

  let task_yield _ ~pid:_ ~runtime:_ ~cpu:_ ~sched = held := sched

  let task_departed _ ~pid:_ ~cpu:_ = Sched.none

  let select_task_rq _ ~pid:_ ~waker_cpu ~allowed:_ = waker_cpu

  let migrate_task_rq _ ~pid:_ ~sched =
    held := sched;
    Sched.none

  let reregister_init ctx _ = create ctx

  let task_tick t ~cpu ~queued:_ =
    match !tick_panic with
    | Some ns ->
      t.ctx.charge ~cpu ns;
      raise Boom
    | None -> ()
end

let rec find_live pid = function
  | [] -> None
  | (task : T.t) :: rest -> if task.pid = pid then Some task else find_live pid rest

(* Register [e] against an inert 80-cpu kernel and return its class.
   [live] is the kernel's task list, the ground truth a failover re-homes
   and a pick is checked against. *)
let null_class ?(live = []) e =
  let topology = Kernsim.Topology.two_socket in
  Enoki.Enoki_c.factory e
    {
      Kernsim.Sched_class.now = (fun () -> 0);
      nr_cpus = Kernsim.Topology.nr_cpus topology;
      topology;
      costs = Kernsim.Costs.default;
      defer = (fun ~delay:_ _ -> ());
      resched_cpu = (fun _ -> ());
      set_timer = (fun ~cpu:_ _ -> ());
      cancel_timer = (fun ~cpu:_ -> ());
      charge = (fun ~cpu:_ _ -> ());
      send_user = (fun ~pid:_ _ -> ());
      current = (fun ~cpu:_ -> None);
      cpu_is_idle = (fun _ -> true);
      find_task = (fun pid -> find_live pid live);
      live_tasks = (fun ~policy:_ -> live);
    }

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Through Enoki-C, a module returning a token it already gave back, a
   token on the wrong core and a superseded token is told so by three
   distinct [pnt_err] reasons, and a forged generation-0 token reads as
   stale. *)
let test_schedulable_consume () =
  let e = Enoki.Enoki_c.create (module Null_sched) in
  let task = T.make (T.default_spec ~name:"t" (fun _ -> T.exit)) ~pid:1 ~now:0 in
  task.T.state <- T.Runnable;
  task.T.cpu <- 2;
  let cls = null_class ~live:[ task ] e in
  let pick token ~cpu =
    pick_reply := token;
    Fun.protect ~finally:(fun () -> pick_reply := Sched.none) (fun () -> cls.pick_next_task ~cpu)
  in
  cls.task_new task ~cpu:2;
  let first = !held in
  check Alcotest.int "a valid token runs" 1 (pick first ~cpu:2);
  check Alcotest.int "returned again" (-1) (pick first ~cpu:2);
  cls.task_wakeup task ~cpu:2 ~waker_cpu:0;
  let woken = !held in
  check Alcotest.int "on another core" (-1) (pick woken ~cpu:3);
  cls.task_preempt task ~cpu:2;
  check Alcotest.int "superseded" (-1) (pick woken ~cpu:2);
  let sorted = List.sort compare in
  check
    Alcotest.(list (pair string int))
    "one of each reason"
    [ ("consumed", 1); ("stale_generation", 1); ("wrong_cpu", 1) ]
    (sorted (Enoki.Enoki_c.violation_breakdown e));
  check Alcotest.int "a forged generation 0" (-1)
    (pick (Sched.Private.create ~pid:1 ~cpu:2 ~gen:0) ~cpu:2);
  check
    Alcotest.(list (pair string int))
    "reads as stale"
    [ ("consumed", 1); ("stale_generation", 2); ("wrong_cpu", 1) ]
    (sorted (Enoki.Enoki_c.violation_breakdown e));
  check Alcotest.int "the live token still runs" 1 (pick !held ~cpu:2)

let test_crossing_allocates_nothing () =
  let e = Enoki.Enoki_c.create (module Null_sched) in
  let cls = null_class e in
  let task = T.make (T.default_spec ~name:"t" (fun _ -> T.exit)) ~pid:1 ~now:0 in
  check Alcotest.bool "unpinned task" true (task.T.affinity = None);
  let n = 10_000 in
  (* a stale reply: each pick crosses twice, into pick_next_task and back
     through pnt_err *)
  let forged = Sched.Private.create ~pid:1 ~cpu:0 ~gen:0 in
  let per_hook =
    [
      ( "pick_next_task",
        fun () ->
          for i = 1 to n do
            ignore (Sys.opaque_identity (cls.pick_next_task ~cpu:(i land 63)))
          done );
      ( "balance",
        fun () ->
          for i = 1 to n do
            ignore (Sys.opaque_identity (cls.balance ~cpu:(i land 63)))
          done );
      ( "task_tick",
        fun () ->
          for i = 1 to n do
            cls.task_tick ~cpu:(i land 63) ~queued:true
          done );
      ( "select_task_rq",
        fun () ->
          for i = 1 to n do
            ignore (Sys.opaque_identity (cls.select_task_rq task ~waker_cpu:(i land 63)))
          done );
      ( "task_new",
        fun () ->
          for i = 1 to n do
            cls.task_new task ~cpu:(i land 63)
          done );
      ( "task_wakeup",
        fun () ->
          for i = 1 to n do
            cls.task_wakeup task ~cpu:(i land 63) ~waker_cpu:0
          done );
      ( "task_preempt",
        fun () ->
          for i = 1 to n do
            cls.task_preempt task ~cpu:(i land 63)
          done );
      ( "task_yield",
        fun () ->
          for i = 1 to n do
            cls.task_yield task ~cpu:(i land 63)
          done );
      ( "migrate_task_rq",
        fun () ->
          for i = 1 to n do
            cls.migrate_task_rq task ~from_cpu:0 ~to_cpu:(i land 63)
          done );
      ( "task_blocked",
        fun () ->
          for i = 1 to n do
            cls.task_blocked task ~cpu:(i land 63)
          done );
      ( "task_dead",
        fun () ->
          for i = 1 to n do
            cls.task_dead task ~cpu:(i land 63)
          done );
      ( "task_departed",
        fun () ->
          for i = 1 to n do
            cls.task_departed task ~cpu:(i land 63)
          done );
      ( "balance_err",
        fun () ->
          for i = 1 to n do
            cls.balance_err task ~cpu:(i land 63)
          done );
      ( "task_prio_changed",
        fun () ->
          for _ = 1 to n do
            cls.task_prio_changed task
          done );
      ( "task_affinity_changed",
        fun () ->
          for _ = 1 to n do
            cls.task_affinity_changed task
          done );
    ]
  in
  List.iter
    (fun (hook, f) -> check (Alcotest.float 0.0) (hook ^ ": minor words") 0.0 (minor_words f))
    per_hook;
  check Alcotest.int "every crossing counted" (List.length per_hook * n) (Enoki.Enoki_c.calls e);
  check Alcotest.int "no violations" 0 (Enoki.Enoki_c.violations e);
  pick_reply := forged;
  let words =
    Fun.protect
      ~finally:(fun () -> pick_reply := Sched.none)
      (fun () ->
        ignore (cls.pick_next_task ~cpu:0);
        minor_words (fun () ->
            for _ = 1 to n do
              ignore (Sys.opaque_identity (cls.pick_next_task ~cpu:0))
            done))
  in
  check (Alcotest.float 0.0) "pnt_err: minor words" 0.0 words;
  check Alcotest.int "every rejection counted" (n + 1) (Enoki.Enoki_c.violations e)

let test_isolation_semantics () =
  let panicking ?call_budget ~isolate charge =
    let e = Enoki.Enoki_c.create ~isolate ?call_budget (module Null_sched) in
    let cls = null_class e in
    tick_panic := Some charge;
    Fun.protect ~finally:(fun () -> tick_panic := None) (fun () ->
        (e, match cls.task_tick ~cpu:2 ~queued:true with () -> None | exception exn -> Some exn))
  in
  (* isolation off: the module's exception unwinds the class hook *)
  let e, raised = panicking ~isolate:false 0 in
  check Alcotest.bool "exception propagates" true (raised = Some Boom);
  check Alcotest.int "no panic counted" 0 (Enoki.Enoki_c.failover_stats e).panics;
  (* isolation on: the same module is quarantined behind the CFS fallback *)
  let e, raised = panicking ~isolate:true 0 in
  let f = Enoki.Enoki_c.failover_stats e in
  check Alcotest.bool "exception contained" true (raised = None);
  check Alcotest.int "one panic" 1 f.panics;
  check Alcotest.int "one failover" 1 f.failovers;
  check Alcotest.bool "quarantined" true (f.quarantined <> None);
  check Alcotest.int "no budget: no overrun" 0 f.overruns;
  (* a call that charges past its budget and then raises is both *)
  let e, raised = panicking ~isolate:true ~call_budget:(Kernsim.Time.us 1) (Kernsim.Time.us 5) in
  let f = Enoki.Enoki_c.failover_stats e in
  check Alcotest.bool "contained" true (raised = None);
  check Alcotest.int "counted as an overrun" 1 f.overruns;
  check Alcotest.int "and as a panic" 1 f.panics;
  let kinds = Enoki.Enoki_c.violation_breakdown e in
  check Alcotest.bool "call_budget violation" true (List.mem_assoc "call_budget" kinds);
  check Alcotest.bool "panic violation" true (List.mem_assoc "panic" kinds)

(* Each of the 16 class hooks, made to raise once through an injected
   panic: the raise is contained, counts as one panic and one failover,
   the [Panic] trace event names the hook's call, and the CFS fallback
   answers the same call.  The kernel lists one runnable task on cpu 2
   that a failover re-homes, so a fallback pick there returns it. *)
let test_isolation_every_hook () =
  let nr_cpus = Kernsim.Topology.nr_cpus Kernsim.Topology.two_socket in
  let spawn pid = T.make (T.default_spec ~name:"t" (fun _ -> T.exit)) ~pid ~now:0 in
  let waiting = spawn 7 in
  waiting.T.cpu <- 2;
  let task = spawn 1 in
  let hooks : (string * (Kernsim.Sched_class.t -> bool)) list =
    [
      ( "select_task_rq",
        fun cls ->
          let c = cls.select_task_rq task ~waker_cpu:3 in
          c >= 0 && c < nr_cpus && T.allowed_cpu task c );
      ("task_new", fun cls -> cls.task_new task ~cpu:2 = ());
      ("task_wakeup", fun cls -> cls.task_wakeup task ~cpu:2 ~waker_cpu:3 = ());
      ("task_blocked", fun cls -> cls.task_blocked task ~cpu:2 = ());
      ("task_yield", fun cls -> cls.task_yield task ~cpu:2 = ());
      ("task_preempt", fun cls -> cls.task_preempt task ~cpu:2 = ());
      ("task_dead", fun cls -> cls.task_dead task ~cpu:2 = ());
      ("task_departed", fun cls -> cls.task_departed task ~cpu:2 = ());
      ("task_tick", fun cls -> cls.task_tick ~cpu:2 ~queued:true = ());
      ("pick_next_task", fun cls -> cls.pick_next_task ~cpu:2 = waiting.T.pid);
      ("balance", fun cls -> cls.balance ~cpu:2 = -1);
      ("balance_err", fun cls -> cls.balance_err task ~cpu:2 = ());
      ("migrate_task_rq", fun cls -> cls.migrate_task_rq task ~from_cpu:2 ~to_cpu:3 = ());
      ("task_prio_changed", fun cls -> cls.task_prio_changed task = ());
      ("task_affinity_changed", fun cls -> cls.task_affinity_changed task = ());
      ("parse_hint", fun cls -> cls.deliver_hint task (Enoki.Hint_codec.Opaque "h") = ());
    ]
  in
  check Alcotest.int "every class hook" 16 (List.length hooks);
  List.iter
    (fun (call, hook) ->
      let tracer = Trace.Tracer.create ~nr_cpus () in
      let plan =
        match Fault.Plan.parse ("panic@" ^ call ^ ":max=1") with
        | Ok p -> p
        | Error m -> Alcotest.fail m
      in
      let e =
        Enoki.Enoki_c.create ~tracer (Fault.Inject.wrap ~seed:1 ~plan (module Null_sched))
      in
      let cls = null_class ~live:[ waiting ] e in
      let answered =
        match hook cls with
        | ok -> ok
        | exception exn -> Alcotest.failf "%s: %s escaped the boundary" call (Printexc.to_string exn)
      in
      let f = Enoki.Enoki_c.failover_stats e in
      check Alcotest.int (call ^ ": one panic") 1 f.panics;
      check Alcotest.int (call ^ ": one failover") 1 f.failovers;
      let panics =
        List.filter_map
          (fun (ev : Trace.Event.t) ->
            match ev.kind with Trace.Event.Panic { call; _ } -> Some call | _ -> None)
          (Trace.Tracer.events tracer)
      in
      check Alcotest.(list string) (call ^ ": Panic names the call") [ call ] panics;
      check Alcotest.bool (call ^ ": the fallback answers") true answered)
    hooks

(* ---------- live upgrade ---------- *)

let hog ~chunk ~steps =
  let left = ref steps in
  fun (_ : T.ctx) ->
    if !left = 0 then T.exit
    else begin
      decr left;
      T.compute chunk
    end

let test_live_upgrade_same_module () =
  let record = Enoki.Record.create () in
  let b =
    Workloads.Setup.build ~record ~topology:Kernsim.Topology.one_socket
      (Workloads.Setup.Enoki_sched (module Schedulers.Wfq))
  in
  let pids =
    List.init 6 (fun i ->
        M.spawn b.machine
          { (T.default_spec ~name:(Printf.sprintf "h%d" i)
               (hog ~chunk:(Kernsim.Time.ms 1) ~steps:30))
            with
            T.policy = b.policy })
  in
  let e = Option.get b.enoki in
  let stats = ref None in
  M.at b.machine ~delay:(Kernsim.Time.ms 10) (fun () ->
      match Enoki.Enoki_c.upgrade e (module Schedulers.Wfq) with
      | Ok s -> stats := Some s
      | Error exn -> raise exn);
  M.run_for b.machine (Kernsim.Time.ms 200);
  (match !stats with
  | Some s ->
    check Alcotest.bool "state transferred" true s.Enoki.Upgrade.transferred;
    check Alcotest.bool "pause is positive" true (s.Enoki.Upgrade.pause > 0);
    check Alcotest.bool "pause is microseconds-scale" true
      (s.Enoki.Upgrade.pause < Kernsim.Time.us 100);
    check Alcotest.bool "tasks carried" true (s.Enoki.Upgrade.tasks_carried >= 6)
  | None -> Alcotest.fail "upgrade did not run");
  (* no task may be lost across the upgrade *)
  List.iter
    (fun pid ->
      check Alcotest.bool "task survived upgrade" true
        ((Option.get (M.find_task b.machine pid)).T.state = T.Dead))
    pids;
  (* the new version's lock takes the next id of the same owner *)
  let created =
    List.filter_map
      (function
        | Enoki.Replay.Lock_event { op = Enoki.Lock.Create; lock_id; _ } -> Some lock_id
        | _ -> None)
      (Enoki.Replay.Private.parse (Enoki.Record.contents record))
  in
  check Alcotest.(list int) "lock ids carry across the upgrade" [ 0; 1 ] created

let test_live_upgrade_incompatible_rejected () =
  let b =
    Workloads.Setup.build ~topology:Kernsim.Topology.one_socket
      (Workloads.Setup.Enoki_sched (module Schedulers.Wfq))
  in
  ignore
    (M.spawn b.machine
       { (T.default_spec ~name:"h" (hog ~chunk:(Kernsim.Time.ms 1) ~steps:50)) with
         T.policy = b.policy });
  M.run_for b.machine (Kernsim.Time.ms 5);
  let e = Option.get b.enoki in
  (* Shinjuku does not recognise WFQ's transfer state *)
  (match Enoki.Enoki_c.upgrade e (module Schedulers.Shinjuku) with
  | Error (Enoki.Upgrade.Incompatible _) -> ()
  | Error e -> raise e
  | Ok _ -> Alcotest.fail "incompatible upgrade must fail");
  check Alcotest.string "old scheduler still registered" "wfq" (Enoki.Enoki_c.scheduler_name e);
  (* and the machine keeps running fine *)
  M.run_for b.machine (Kernsim.Time.ms 100);
  check Alcotest.int "no tasks alive" 0
    (List.length
       (List.filter (fun (t : T.t) -> t.T.state <> T.Dead) (M.tasks b.machine)))

let test_upgrade_pause_scales_with_tasks () =
  let pause_for n =
    let b =
      Workloads.Setup.build ~topology:Kernsim.Topology.two_socket
        (Workloads.Setup.Enoki_sched (module Schedulers.Wfq))
    in
    for i = 1 to n do
      ignore
        (M.spawn b.machine
           { (T.default_spec ~name:(Printf.sprintf "h%d" i)
                (hog ~chunk:(Kernsim.Time.ms 1) ~steps:100))
             with
             T.policy = b.policy })
    done;
    let e = Option.get b.enoki in
    let pause = ref 0 in
    M.at b.machine ~delay:(Kernsim.Time.ms 5) (fun () ->
        match Enoki.Enoki_c.upgrade e (module Schedulers.Wfq) with
        | Ok s -> pause := s.Enoki.Upgrade.pause
        | Error exn -> raise exn);
    M.run_for b.machine (Kernsim.Time.ms 10);
    !pause
  in
  let small = pause_for 4 and large = pause_for 80 in
  check Alcotest.bool "more tasks, longer pause" true (large > small)

(* ---------- hints ---------- *)

let test_hints_reach_scheduler () =
  Schedulers.Hints.register_codecs ();
  let b =
    Workloads.Setup.build ~topology:Kernsim.Topology.one_socket
      (Workloads.Setup.Enoki_sched (module Schedulers.Locality))
  in
  let beh =
    let st = ref `Hint in
    fun (ctx : T.ctx) ->
      match !st with
      | `Hint ->
        st := `Work;
        T.send_hint ctx (Schedulers.Hints.Locality { pid = ctx.T.self; group = 1 })
      | `Work -> T.exit
  in
  ignore (M.spawn b.machine { (T.default_spec ~name:"hinter" beh) with T.policy = b.policy });
  M.run_for b.machine (Kernsim.Time.ms 10);
  match b.enoki with
  | Some e -> check Alcotest.int "no hints dropped" 0 (Enoki.Enoki_c.Private.hints_dropped e)
  | None -> Alcotest.fail "no enoki"

(* ---------- record / replay ---------- *)

let pingpong_workload b ~iters =
  let m = b.Workloads.Setup.machine in
  let ch_ab = M.new_chan m and ch_ba = M.new_chan m in
  let mk ~send ~recv ~first =
    let n = ref 0 and st = ref (if first then `Send else `Recv0) in
    fun (_ : T.ctx) ->
      match !st with
      | `Recv0 ->
        st := `Send;
        T.block recv
      | `Send ->
        st := `Recv;
        T.wake send
      | `Recv ->
        incr n;
        if !n >= iters then T.exit
        else begin
          st := `Send;
          T.block recv
        end
  in
  ignore
    (M.spawn m
       { (T.default_spec ~name:"ping" (mk ~send:ch_ab ~recv:ch_ba ~first:true)) with
         T.policy = b.Workloads.Setup.policy });
  ignore
    (M.spawn m
       { (T.default_spec ~name:"pong" (mk ~send:ch_ba ~recv:ch_ab ~first:false)) with
         T.policy = b.Workloads.Setup.policy })

let test_record_produces_log () =
  let record = Enoki.Record.create () in
  let b = build_fifo ~record () in
  pingpong_workload b ~iters:50;
  M.run_for b.machine (Kernsim.Time.ms 100);
  Enoki.Record.drain record;
  check Alcotest.bool "log non-empty" true (Enoki.Record.length record > 100);
  check Alcotest.int "nothing dropped" 0 (Enoki.Record.dropped record);
  (* every line parses *)
  let entries = Enoki.Replay.Private.parse (Enoki.Record.contents record) in
  check Alcotest.bool "entries parsed" true (List.length entries > 100)

let test_record_ring_overrun_drops () =
  let record = Enoki.Record.create ~capacity:8 () in
  let b = build_fifo ~record () in
  pingpong_workload b ~iters:200;
  M.run_for b.machine (Kernsim.Time.ms 200);
  (* tiny ring, high rate: the paper's "events may be dropped" behaviour *)
  check Alcotest.bool "drops counted" true (Enoki.Record.dropped record > 0)

let test_replay_matches_record () =
  let record = Enoki.Record.create () in
  let b = build_fifo ~record () in
  pingpong_workload b ~iters:100;
  M.run_for b.machine (Kernsim.Time.ms 200);
  let log = Enoki.Record.contents record in
  (* replay the identical scheduler code at userspace *)
  let report = Enoki.Replay.run (module Schedulers.Fifo_sched) ~log in
  check Alcotest.bool "replayed calls" true (report.Enoki.Replay.total_calls > 200);
  check Alcotest.(list (pair int string)) "no mismatches" [] report.Enoki.Replay.mismatches;
  check Alcotest.bool "multiple kernel threads" true (report.Enoki.Replay.threads >= 1)

let test_replay_detects_divergence () =
  let record = Enoki.Record.create () in
  let b = build_fifo ~record () in
  pingpong_workload b ~iters:50;
  M.run_for b.machine (Kernsim.Time.ms 100);
  let log = Enoki.Record.contents record in
  (* replay against a different scheduler: replies must diverge *)
  let report = Enoki.Replay.run (module Schedulers.Shinjuku) ~log in
  check Alcotest.bool "divergence flagged" true (report.Enoki.Replay.mismatches <> [])

let test_record_length_counts_undrained () =
  (* regression: [length] used to return only lines already drained, so a
     freshly tapped record reported 0 *)
  let record = Enoki.Record.create () in
  Enoki.Record.tap_lock record { Enoki.Lock.lock_id = 0; op = Enoki.Lock.Create; tid = 0 };
  Enoki.Record.tap_lock record { Enoki.Lock.lock_id = 0; op = Enoki.Lock.Acquire; tid = 1 };
  check Alcotest.int "undrained lines counted" 2 (Enoki.Record.length record);
  Enoki.Record.drain record;
  check Alcotest.int "no double counting after drain" 2 (Enoki.Record.length record)

let test_record_overrun_reported_and_log_usable () =
  let record = Enoki.Record.create ~capacity:64 () in
  let b = build_fifo ~record () in
  pingpong_workload b ~iters:300;
  M.run_for b.machine (Kernsim.Time.ms 500);
  (* the tiny ring must overrun, and the drop count must say so *)
  check Alcotest.bool "drops reported" true (Enoki.Record.dropped record > 0);
  (* drops are whole lines, so everything kept still parses *)
  let entries = Enoki.Replay.Private.parse (Enoki.Record.contents record) in
  check Alcotest.bool "surviving lines parse" true (List.length entries > 0)

let test_replay_of_truncated_log_validates () =
  let record = Enoki.Record.create () in
  let b = build_fifo ~record () in
  pingpong_workload b ~iters:100;
  M.run_for b.machine (Kernsim.Time.ms 200);
  let log = Enoki.Record.contents record in
  check Alcotest.int "full log lost nothing" 0 (Enoki.Record.dropped record);
  let full = (Enoki.Replay.run (module Schedulers.Fifo_sched) ~log).Enoki.Replay.total_calls in
  (* keep only the first two thirds of the bytes: the log records lock
     events strictly before the call they bracket, so a prefix cut leaves
     at worst dangling trailing lock entries, never an orphaned call *)
  let truncated = String.sub log 0 (String.length log * 2 / 3) in
  let report = Enoki.Replay.run (module Schedulers.Fifo_sched) ~log:truncated in
  check Alcotest.bool "truncated log replays calls" true
    (report.Enoki.Replay.total_calls > 0 && report.Enoki.Replay.total_calls < full);
  check
    Alcotest.(list (pair int string))
    "truncated log still validates" [] report.Enoki.Replay.mismatches

let test_binary_truncation_salvages_frames () =
  let record = Enoki.Record.create () in
  let b = build_fifo ~record () in
  pingpong_workload b ~iters:100;
  M.run_for b.machine (Kernsim.Time.ms 200);
  let log = Enoki.Record.contents record in
  let full = Enoki.Replay.Private.parse log in
  (* chop the final byte: the trailer frame is now cut mid-frame, which is
     what a crash mid-write leaves behind *)
  let cut = String.sub log 0 (String.length log - 1) in
  let entries, info = Enoki.Replay.Private.parse_full cut in
  check Alcotest.bool "truncation flagged" true info.Enoki.Replay.truncated;
  check
    Alcotest.(option int)
    "trailer lost with the cut" None info.Enoki.Replay.recorded_events;
  check Alcotest.int "complete frames salvaged" (List.length full) (List.length entries);
  (* the salvaged prefix still replays and validates *)
  let report = Enoki.Replay.run (module Schedulers.Fifo_sched) ~log:cut in
  check Alcotest.bool "salvaged frames replay calls" true
    (report.Enoki.Replay.total_calls > 0);
  check
    Alcotest.(list (pair int string))
    "salvaged frames validate" [] report.Enoki.Replay.mismatches

let test_replay_fails_fast_on_drops () =
  let record = Enoki.Record.create ~capacity:8 () in
  let b = build_fifo ~record () in
  pingpong_workload b ~iters:200;
  M.run_for b.machine (Kernsim.Time.ms 200);
  let dropped = Enoki.Record.dropped record in
  check Alcotest.bool "ring overran" true (dropped > 0);
  let log = Enoki.Record.contents record in
  let info = Enoki.Replay.info log in
  check Alcotest.(option int) "trailer names the drop count" (Some dropped) info.Enoki.Replay.dropped;
  (* a recording with holes must not silently replay as if complete *)
  (match Enoki.Replay.run (module Schedulers.Fifo_sched) ~log with
  | exception Enoki.Replay.Incomplete_log { dropped = d } ->
    check Alcotest.int "exception names the drop count" dropped d
  | _ -> Alcotest.fail "expected Incomplete_log");
  (* explicit opt-in still replays what survived *)
  let report = Enoki.Replay.run ~allow_drops:true (module Schedulers.Fifo_sched) ~log in
  check Alcotest.bool "forced replay completes" true (report.Enoki.Replay.wall_seconds >= 0.)

let contains hay needle =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_pp_report_names_log_lines () =
  let record = Enoki.Record.create () in
  let b = build_fifo ~record () in
  pingpong_workload b ~iters:50;
  M.run_for b.machine (Kernsim.Time.ms 100);
  let log = Enoki.Record.contents record in
  let report = Enoki.Replay.run (module Schedulers.Shinjuku) ~log in
  check Alcotest.bool "divergence flagged" true (report.Enoki.Replay.mismatches <> []);
  let rendered = Format.asprintf "%a" Enoki.Replay.pp_report report in
  let first_seq =
    match report.Enoki.Replay.mismatches with (s, _) :: _ -> s | [] -> assert false
  in
  check Alcotest.bool "report names the first mismatch position" true
    (contains rendered (Printf.sprintf "entry %d:" first_seq))

let test_bisect_pinpoints_injected_wrong_reply () =
  let plan =
    match Fault.Plan.parse "wrong-reply:p=0.05" with Ok p -> p | Error e -> failwith e
  in
  let faulty = Fault.Inject.wrap ~seed:7 ~plan (module Schedulers.Wfq) in
  let record = Enoki.Record.create () in
  let b =
    Workloads.Setup.build ~record ~topology:Kernsim.Topology.one_socket
      (Workloads.Setup.Enoki_sched faulty)
  in
  pingpong_workload b ~iters:100;
  M.run_for b.machine (Kernsim.Time.ms 200);
  let log = Enoki.Record.contents record in
  (* replay the clean scheduler: the injected wrong replies must diverge *)
  let report = Enoki.Replay.run (module Schedulers.Wfq) ~log in
  check Alcotest.bool "injected fault visible on replay" true
    (report.Enoki.Replay.mismatches <> []);
  match Enoki.Replay.bisect (module Schedulers.Wfq) ~log with
  | None -> Alcotest.fail "bisect found no divergence in a diverging log"
  | Some d ->
    let first_seq =
      match report.Enoki.Replay.mismatches with (s, _) :: _ -> s | [] -> assert false
    in
    check Alcotest.int "bisect pinpoints the first divergent call" first_seq
      d.Enoki.Replay.seq;
    check Alcotest.bool "minimal failing prefix found" true (d.Enoki.Replay.failing_prefix >= 1);
    check Alcotest.bool "context window populated" true (d.Enoki.Replay.context <> [])

let record_wfq_pingpong () =
  let record = Enoki.Record.create () in
  let b =
    Workloads.Setup.build ~record ~topology:Kernsim.Topology.one_socket
      (Workloads.Setup.Enoki_sched (module Schedulers.Wfq))
  in
  pingpong_workload b ~iters:100;
  M.run_for b.machine (Kernsim.Time.ms 200);
  Enoki.Record.contents record

let test_replay_sized_from_log () =
  (* a 16-cpu recording names cpus past the inert context's default of 8 *)
  let record = Enoki.Record.create ~capacity:(1 lsl 18) () in
  let b =
    Workloads.Setup.build ~record
      ~topology:(Kernsim.Topology.create ~cores:16 ~cores_per_llc:16 ~cores_per_node:16)
      (Workloads.Setup.Enoki_sched (module Schedulers.Wfq))
  in
  let p =
    {
      (Workloads.Schbench.default_params ~seed:1 ()) with
      warmup = Kernsim.Time.ms 5;
      duration = Kernsim.Time.ms 20;
    }
  in
  ignore (Workloads.Schbench.run b p);
  check Alcotest.int "nothing dropped" 0 (Enoki.Record.dropped record);
  let report = Enoki.Replay.run (module Schedulers.Wfq) ~log:(Enoki.Record.contents record) in
  check Alcotest.bool "calls from cpus past 8" true (report.Enoki.Replay.threads > 8);
  check Alcotest.(list (pair int string)) "all replies matched" [] report.Enoki.Replay.mismatches

let test_replay_reports_raising_call () =
  let log = record_wfq_pingpong () in
  let clean = Enoki.Replay.run (module Schedulers.Wfq) ~log in
  check Alcotest.(list (pair int string)) "clean replay" [] clean.Enoki.Replay.mismatches;
  let plan =
    match Fault.Plan.parse "panic@task_wakeup:after=20,max=1" with
    | Ok p -> p
    | Error e -> failwith e
  in
  let report = Enoki.Replay.run (Fault.Inject.wrap ~seed:7 ~plan (module Schedulers.Wfq)) ~log in
  check Alcotest.int "every call replayed" clean.Enoki.Replay.total_calls
    report.Enoki.Replay.total_calls;
  match report.Enoki.Replay.mismatches with
  | [] -> Alcotest.fail "a panicking module replayed clean"
  | (_, detail) :: _ ->
    check Alcotest.bool
      (Printf.sprintf "first mismatch names the exception: %s" detail)
      true
      (contains detail "replayed raised Fault.Plan.Injected")

let test_diverging_replay_deterministic () =
  let log = record_wfq_pingpong () in
  let mismatches () = (Enoki.Replay.run (module Schedulers.Shinjuku) ~log).Enoki.Replay.mismatches in
  let first = mismatches () in
  check Alcotest.bool "diverges" true (first <> []);
  check Alcotest.(list (pair int string)) "same mismatches twice" first (mismatches ())

let test_streaming_record_memory_bounded () =
  let path = Filename.temp_file "enoki" ".rec" in
  let record = Enoki.Record.create_file ~path ~capacity:4096 () in
  let total = 1_000_000 in
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  for i = 0 to total - 1 do
    Enoki.Record.tap_lock record
      { Enoki.Lock.lock_id = i land 7; op = Enoki.Lock.Acquire; tid = i land 3 };
    if i land 2047 = 2047 then Enoki.Record.drain record
  done;
  Enoki.Record.close record;
  Gc.full_major ();
  let after = (Gc.stat ()).Gc.live_words in
  (* streaming must not accumulate the log in the heap: a megaevent run
     buffered in memory would hold several MB; the drained path keeps only
     the ring and a scratch buffer *)
  check Alcotest.bool "heap growth bounded" true (after - before < 262_144);
  let log = Enoki.Record.load_file ~path in
  Sys.remove path;
  let info = Enoki.Replay.info log in
  check Alcotest.(option int) "all events reached the file" (Some total)
    info.Enoki.Replay.recorded_events;
  check Alcotest.(option int) "no drops" (Some 0) info.Enoki.Replay.dropped;
  check Alcotest.bool "log complete" false info.Enoki.Replay.truncated

let test_malformed_logs_rejected () =
  let expect what ~pos log =
    match Enoki.Replay.Private.parse_full log with
    | exception Enoki.Replay.Malformed_log { pos = p; reason } ->
      check Alcotest.int (what ^ ": position") pos p;
      check Alcotest.bool (what ^ ": reason given") true (reason <> "")
    | _ -> Alcotest.failf "%s: expected Malformed_log" what
  in
  expect "empty" ~pos:0 "";
  expect "no header" ~pos:0 "hello world";
  (* one well-formed lock frame, then a frame of unknown kind 0x05 *)
  let lock_frame = "\x04\x02\x00\x01\x00" in
  expect "unknown kind" ~pos:2 (Enoki.Record.magic ^ lock_frame ^ "\x01\x05");
  expect "bad lock op" ~pos:1 (Enoki.Record.magic ^ "\x04\x02\x00\x07\x00");
  (* a lock frame declaring 2 bytes but carrying 4 fields' worth *)
  expect "fields overrun" ~pos:1 (Enoki.Record.magic ^ "\x02\x02\x00\x01\x00");
  (* a frame cut mid-way is truncation, not corruption *)
  let _, info = Enoki.Replay.Private.parse_full (Enoki.Record.magic ^ lock_frame ^ "\x04\x02") in
  check Alcotest.bool "cut frame is truncation" true info.Enoki.Replay.truncated

let test_record_save_load () =
  let record = Enoki.Record.create () in
  let b = build_fifo ~record () in
  pingpong_workload b ~iters:20;
  M.run_for b.machine (Kernsim.Time.ms 50);
  let path = Filename.temp_file "enoki" ".rec" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Enoki.Record.contents record));
  let loaded = Enoki.Record.load_file ~path in
  Sys.remove path;
  check Alcotest.string "file roundtrip" (Enoki.Record.contents record) loaded

(* ---------- suite ---------- *)

let () =
  Alcotest.run "enoki-core"
    [
      ( "schedulable",
        [
          Alcotest.test_case "fields" `Quick test_schedulable_fields;
          Alcotest.test_case "consume" `Quick test_schedulable_consume;
        ] );
      ( "message",
        [
          Alcotest.test_case "call roundtrips" `Quick test_message_roundtrips;
          Alcotest.test_case "reply roundtrips" `Quick test_reply_roundtrips;
          Alcotest.test_case "reply matching" `Quick test_reply_matching;
          Alcotest.test_case "decode failure" `Quick test_decode_failure;
        ] );
      ( "hints",
        [
          Alcotest.test_case "codec roundtrip" `Quick test_hint_codec;
          Alcotest.test_case "opaque fallback" `Quick test_hint_codec_opaque;
          Alcotest.test_case "hints reach scheduler" `Quick test_hints_reach_scheduler;
        ] );
      ( "lock",
        [
          Alcotest.test_case "passthrough" `Quick test_lock_passthrough;
          Alcotest.test_case "record events" `Quick test_lock_record_events;
          Alcotest.test_case "replay order" `Quick test_lock_replay_order;
          Alcotest.test_case "locked: passthrough allocates nothing" `Quick
            test_locked_passthrough_allocates_nothing;
          Alcotest.test_case "locked: tapped allocates nothing" `Quick
            test_locked_tap_allocates_nothing;
          Alcotest.test_case "locked: tap pairs on raise" `Quick test_locked_tap_pairs_on_raise;
          Alcotest.test_case "locked: records like with_lock" `Quick
            test_locked_records_like_with_lock;
          Alcotest.test_case "recorded log: a later machine adds nothing" `Quick
            test_record_log_not_grown_by_later_machine;
          Alcotest.test_case "traced machine keeps its lock events" `Quick
            test_traced_machine_keeps_lock_events;
        ] );
      ( "enoki_c",
        [
          Alcotest.test_case "runs tasks" `Quick test_enoki_runs_tasks;
          Alcotest.test_case "coexists with cfs" `Quick test_enoki_coexists_with_cfs;
          Alcotest.test_case "violation recovered via pnt_err" `Quick
            test_schedulable_violation_recovered;
          Alcotest.test_case "crossing allocates nothing" `Quick test_crossing_allocates_nothing;
          Alcotest.test_case "isolation semantics" `Quick test_isolation_semantics;
          Alcotest.test_case "isolation: every hook" `Quick test_isolation_every_hook;
        ] );
      ( "upgrade",
        [
          Alcotest.test_case "same module" `Quick test_live_upgrade_same_module;
          Alcotest.test_case "incompatible rejected" `Quick
            test_live_upgrade_incompatible_rejected;
          Alcotest.test_case "pause scales" `Quick test_upgrade_pause_scales_with_tasks;
        ] );
      ( "record-replay",
        [
          Alcotest.test_case "record produces log" `Quick test_record_produces_log;
          Alcotest.test_case "ring overrun drops" `Quick test_record_ring_overrun_drops;
          Alcotest.test_case "length counts undrained lines" `Quick
            test_record_length_counts_undrained;
          Alcotest.test_case "overrun reported, log usable" `Quick
            test_record_overrun_reported_and_log_usable;
          Alcotest.test_case "truncated log validates" `Quick
            test_replay_of_truncated_log_validates;
          Alcotest.test_case "replay matches" `Quick test_replay_matches_record;
          Alcotest.test_case "replay detects divergence" `Quick test_replay_detects_divergence;
          Alcotest.test_case "save/load" `Quick test_record_save_load;
          Alcotest.test_case "binary truncation salvages frames" `Quick
            test_binary_truncation_salvages_frames;
          Alcotest.test_case "replay fails fast on drops" `Quick test_replay_fails_fast_on_drops;
          Alcotest.test_case "report names log lines" `Quick test_pp_report_names_log_lines;
          Alcotest.test_case "bisect pinpoints injected wrong reply" `Quick
            test_bisect_pinpoints_injected_wrong_reply;
          Alcotest.test_case "streaming memory bounded" `Quick
            test_streaming_record_memory_bounded;
          Alcotest.test_case "malformed logs rejected" `Quick test_malformed_logs_rejected;
          Alcotest.test_case "replay sized from the log" `Quick test_replay_sized_from_log;
          Alcotest.test_case "raising call is its mismatch" `Quick
            test_replay_reports_raising_call;
          Alcotest.test_case "diverging replay is deterministic" `Quick
            test_diverging_replay_deterministic;
        ] );
    ]
