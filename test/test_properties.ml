(* Cross-cutting property tests: invariants that must hold for every
   scheduler on randomly generated workloads.

   - liveness / work conservation: every spawned task eventually finishes
     when the machine has capacity;
   - safety: no Schedulable violations ever arise from correct schedulers;
   - record/replay: a recorded run replays against the same scheduler code
     with every reply matching (the §3.4 determinism argument). *)

module T = Kernsim.Task
module M = Kernsim.Machine

let schedulers : (string * (module Enoki.Sched_trait.S)) list =
  [
    ("fifo", (module Schedulers.Fifo_sched));
    ("wfq", (module Schedulers.Wfq));
    ("shinjuku", (module Schedulers.Shinjuku));
    ("locality", (module Schedulers.Locality));
    ("nest", (module Schedulers.Nest));
    ("edf", (module Schedulers.Edf));
  ]

(* a random but finite task mix: compute bursts, sleeps, channel traffic *)
let spawn_random_workload m ~policy ~rng ~tasks =
  let ch = M.new_chan m in
  let total_work = ref 0 in
  let pids =
    List.init tasks (fun i ->
        let steps = ref (5 + Stats.Prng.int rng 15) in
        let beh (_ : T.ctx) =
          if !steps = 0 then T.Exit
          else begin
            decr steps;
            match Stats.Prng.int rng 6 with
            | 0 | 1 ->
              let d = 1 + Stats.Prng.int rng 800_000 in
              total_work := !total_work + d;
              T.Compute d
            | 2 -> T.Sleep (1 + Stats.Prng.int rng 300_000)
            | 3 -> T.Wake ch
            | 4 -> T.Yield
            | _ -> if Stats.Prng.int rng 2 = 0 then T.Wake ch else T.Block ch
          end
        in
        let affinity = if Stats.Prng.int rng 4 = 0 then Some [ Stats.Prng.int rng 8 ] else None in
        M.spawn m
          {
            (T.default_spec ~name:(Printf.sprintf "r%d" i) beh) with
            T.policy;
            nice = Stats.Prng.int rng 20 - 10;
            affinity;
          })
  in
  (pids, ch, total_work)

(* blocked-forever tasks are legitimate (a Block with no matching Wake);
   release them by flooding the channel at the end *)
let release m ch =
  let flood =
    let n = ref 64 in
    fun (_ : T.ctx) ->
      if !n = 0 then T.Exit
      else begin
        decr n;
        T.Wake ch
      end
  in
  ignore (M.spawn m (T.default_spec ~name:"flood" flood))

let prop_tasks_finish (name, modul) seed =
  let b =
    Workloads.Setup.build ~topology:Kernsim.Topology.one_socket
      (Workloads.Setup.Enoki_sched modul)
  in
  let rng = Stats.Prng.create ~seed in
  let pids, ch, total_work = spawn_random_workload b.machine ~policy:b.policy ~rng ~tasks:10 in
  M.run_for b.machine (Kernsim.Time.ms 400);
  release b.machine ch;
  M.run_for b.machine (Kernsim.Time.ms 200);
  let unfinished =
    List.filter
      (fun pid -> (Option.get (M.find_task b.machine pid)).T.state <> T.Dead)
      pids
  in
  (match b.enoki with
  | Some e ->
    if Enoki.Enoki_c.violations e > 0 then
      QCheck.Test.fail_reportf "%s: %d Schedulable violations (seed %d)" name
        (Enoki.Enoki_c.violations e) seed
  | None -> ());
  if unfinished <> [] then
    QCheck.Test.fail_reportf "%s: %d tasks never finished (seed %d)" name
      (List.length unfinished) seed;
  (* the consumed cpu time covers the generated compute demand *)
  let consumed =
    List.fold_left
      (fun acc pid -> acc + (Option.get (M.find_task b.machine pid)).T.sum_exec)
      0 pids
  in
  if consumed < !total_work then
    QCheck.Test.fail_reportf "%s: consumed %d < demanded %d (seed %d)" name consumed !total_work
      seed;
  true

let prop_record_replay_roundtrip seed =
  (* record a random workload on WFQ, replay against the same code *)
  Enoki.Lock.set_passthrough_mode ();
  let record = Enoki.Record.create ~capacity:(1 lsl 18) () in
  let b =
    Workloads.Setup.build ~record ~topology:Kernsim.Topology.one_socket
      (Workloads.Setup.Enoki_sched (module Schedulers.Wfq))
  in
  let rng = Stats.Prng.create ~seed in
  let _, ch, _ = spawn_random_workload b.machine ~policy:b.policy ~rng ~tasks:8 in
  M.run_for b.machine (Kernsim.Time.ms 200);
  release b.machine ch;
  M.run_for b.machine (Kernsim.Time.ms 100);
  let log = Enoki.Record.contents record in
  let report = Enoki.Replay.run (module Schedulers.Wfq) ~log in
  if report.Enoki.Replay.mismatches <> [] then
    QCheck.Test.fail_reportf "replay diverged on seed %d: %d mismatches (first: %s)" seed
      (List.length report.Enoki.Replay.mismatches)
      (match report.Enoki.Replay.mismatches with
      | (line, msg) :: _ -> Printf.sprintf "line %d: %s" line msg
      | [] -> "");
  report.Enoki.Replay.total_calls > 0

let binary_call_roundtrip c =
  let buf = Buffer.create 64 in
  Enoki.Message.put_call buf c;
  let cur = Enoki.Wire.cursor (Buffer.contents buf) in
  let c' = Enoki.Message.get_call cur in
  Enoki.Wire.at_end cur && Enoki.Message.string_of_call c' = Enoki.Message.string_of_call c

let prop_message_fuzz_roundtrip (pid, cpu, gen, runtime) =
  let module S = Enoki.Schedulable in
  let pid = abs pid mod (S.Private.max_pid + 1)
  and cpu = abs cpu mod 128
  and gen = abs gen mod (S.Private.max_generation + 1)
  and runtime = abs runtime in
  let s = S.Private.create ~pid ~cpu ~gen in
  let calls =
    [
      Enoki.Message.Task_wakeup { pid; runtime; waker_cpu = cpu; sched = s };
      Enoki.Message.Task_blocked { pid; runtime; cpu };
      Enoki.Message.Select_task_rq { pid; waker_cpu = cpu; allowed = [ cpu; cpu + 1 ] };
      Enoki.Message.Pick_next_task { cpu; curr = s; curr_runtime = runtime };
    ]
  in
  List.for_all binary_call_roundtrip calls

(* Packing a token and reading it back gives every field unchanged, over
   each field's whole range: the generator mixes uniform draws with the
   boundary values 0, 1, max-1 and max of each field. *)
let token_fields =
  let module S = Enoki.Schedulable in
  let field max =
    QCheck.Gen.(oneof [ int_bound max; oneofl [ 0; 1; max - 1; max ] ])
  in
  QCheck.make
    ~print:(fun (pid, cpu, gen) -> Printf.sprintf "pid %d cpu %d gen %d" pid cpu gen)
    QCheck.Gen.(triple (field S.Private.max_pid) (field S.Private.max_cpu) (field S.Private.max_generation))

let prop_token_pack_roundtrip (pid, cpu, gen) =
  let module S = Enoki.Schedulable in
  let s = S.Private.create ~pid ~cpu ~gen in
  S.pid s = pid && S.cpu s = cpu && S.generation s = gen
  && (not (S.is_none s))
  && S.is_none S.none
  && (S.pid S.none, S.cpu S.none, S.generation S.none) = (-1, -1, -1)

(* payloads chosen to break a delimiter-based log: the length-prefixed
   wire form must keep them byte-exact *)
let adversarial_string =
  let gen =
    QCheck.Gen.(
      let fragment =
        oneof
          [
            return " => ";
            return "\n";
            return "%";
            return " ";
            return "# enoki-record: events=1 dropped=2";
            return "C 3 pick_next_task";
            string_size ~gen:printable (int_range 0 16);
          ]
      in
      map (String.concat "") (list_size (int_range 0 12) fragment))
  in
  QCheck.make ~print:String.escaped gen

let prop_adversarial_payload_roundtrip (err, payload) =
  let s = Enoki.Schedulable.Private.create ~pid:7 ~cpu:1 ~gen:2 in
  let calls =
    [
      Enoki.Message.Pnt_err { cpu = 1; pid = 7; err; sched = s };
      Enoki.Message.Pnt_err { cpu = 0; pid = 3; err; sched = Enoki.Schedulable.none };
      Enoki.Message.Parse_hint { pid = 7; hint = Enoki.Hint_codec.Opaque payload };
    ]
  in
  List.for_all
    (fun c ->
      (* the printed form stays one line: replay context prints one per entry *)
      (not (String.contains (Enoki.Message.string_of_call c) '\n')) && binary_call_roundtrip c)
    calls
  (* and the payload bytes come back untouched *)
  && (let buf = Buffer.create 64 in
      Enoki.Message.put_call buf (Enoki.Message.Parse_hint { pid = 1; hint = Enoki.Hint_codec.Opaque payload });
      match Enoki.Message.get_call (Enoki.Wire.cursor (Buffer.contents buf)) with
      | Enoki.Message.Parse_hint { hint = Enoki.Hint_codec.Opaque p; _ } -> p = payload
      | _ -> false)

let prop_binary_reply_roundtrip (n, pid) =
  let pid = abs pid mod (Enoki.Schedulable.Private.max_pid + 1) in
  let s = Enoki.Schedulable.Private.create ~pid ~cpu:0 ~gen:1 in
  let replies =
    [
      Enoki.Message.R_unit;
      Enoki.Message.R_int n;
      Enoki.Message.R_pid_opt (if pid mod 2 = 0 then pid else -1);
      Enoki.Message.R_sched_opt (if pid mod 3 = 0 then s else Enoki.Schedulable.none);
    ]
  in
  List.for_all
    (fun r ->
      let buf = Buffer.create 16 in
      Enoki.Message.put_reply buf r;
      let cur = Enoki.Wire.cursor (Buffer.contents buf) in
      let r' = Enoki.Message.get_reply cur in
      Enoki.Wire.at_end cur
      && Enoki.Message.string_of_reply r' = Enoki.Message.string_of_reply r)
    replies

(* ---- record-log decoder fuzzing ----

   A real log (Locality under schbench with co-location hints, so hint
   frames are in it too), mutated: 1-4 bytes flipped after the header, or
   cut at a random length.  The decoder may accept the result or reject it,
   but only ever with [Malformed_log]; a cut is never corruption. *)

let fuzz_log =
  lazy
    (Enoki.Lock.set_passthrough_mode ();
     let record = Enoki.Record.create ~capacity:(1 lsl 18) () in
     let b =
       Workloads.Setup.build ~record ~topology:Kernsim.Topology.one_socket
         (Workloads.Setup.Enoki_sched (module Schedulers.Locality))
     in
     let p =
       {
         (Workloads.Schbench.default_params ~seed:1 ()) with
         locality_hints = true;
         warmup = Kernsim.Time.ms 5;
         duration = Kernsim.Time.ms 20;
       }
     in
     ignore (Workloads.Schbench.run b p);
     Enoki.Record.contents record)

(* byte offsets where a frame ends: cutting there loses no frame *)
let frame_ends log =
  let cur = Enoki.Wire.cursor ~pos:(String.length Enoki.Record.magic) log in
  let ends = ref [ cur.pos ] in
  while not (Enoki.Wire.at_end cur) do
    let len = Enoki.Wire.get_uint cur in
    cur.pos <- cur.pos + len;
    ends := cur.pos :: !ends
  done;
  !ends

type mutation = Flip of (int * int) list | Cut of int

let mutation =
  let header = String.length Enoki.Record.magic in
  let gen st =
    let len = String.length (Lazy.force fuzz_log) in
    let open QCheck.Gen in
    if bool st then Cut (int_bound (len - 1) st)
    else
      Flip
        (list_size (int_range 1 4) (pair (int_range header (len - 1)) (int_range 1 255)) st)
  in
  let print = function
    | Cut n -> Printf.sprintf "cut at %d" n
    | Flip l ->
      "flip " ^ String.concat ", " (List.map (fun (at, x) -> Printf.sprintf "%d^%d" at x) l)
  in
  QCheck.make ~print gen

let prop_mutated_log_rejected_cleanly m =
  let log = Lazy.force fuzz_log in
  let mutated =
    match m with
    | Cut n -> String.sub log 0 n
    | Flip l ->
      let b = Bytes.of_string log in
      List.iter
        (fun (at, x) -> Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor x)))
        l;
      Bytes.to_string b
  in
  match (m, Enoki.Replay.Private.parse_full mutated) with
  | Cut n, (_, info) ->
    (* a cut inside the header has no header; anywhere else it is flagged
       exactly when it falls mid-frame *)
    n >= String.length Enoki.Record.magic
    && info.Enoki.Replay.truncated = not (List.mem n (frame_ends log))
  | Flip _, _ -> true
  | exception Enoki.Replay.Malformed_log _ -> (
    match m with Cut n -> n < String.length Enoki.Record.magic | Flip _ -> true)

(* A log whose token does not fit the packing is rejected in one
   [Malformed_log] naming the field, never read as another token: one
   task_wakeup frame, its token's pid, cpu or generation one past the
   limit, or a varint overflowing to a negative value. *)
let test_out_of_range_token_rejected () =
  let module S = Enoki.Schedulable in
  (* LEB128 of the raw bit pattern, as the decoder reads it back *)
  let rec put_bits buf n =
    if n lsr 7 = 0 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      put_bits buf (n lsr 7)
    end
  in
  let log ~pid ~cpu ~gen =
    let payload = Buffer.create 32 in
    Enoki.Wire.put_byte payload 0x01 (* a call *);
    Enoki.Wire.put_uint payload 0 (* tid *);
    Enoki.Wire.put_byte payload 5 (* task_wakeup *);
    List.iter (Enoki.Wire.put_uint payload) [ 1; 0; 0 ] (* pid, runtime, waker_cpu *);
    put_bits payload pid;
    put_bits payload cpu;
    put_bits payload gen;
    Enoki.Wire.put_byte payload 0 (* R_unit *);
    let b = Buffer.create 64 in
    Buffer.add_string b Enoki.Record.magic;
    Enoki.Wire.put_uint b (Buffer.length payload);
    Buffer.add_buffer b payload;
    Buffer.contents b
  in
  List.iter
    (fun (field, pid, cpu, gen) ->
      match Enoki.Replay.Private.parse (log ~pid ~cpu ~gen) with
      | _ -> Alcotest.failf "%s: decoded" field
      | exception Enoki.Replay.Malformed_log { pos; reason } ->
        Alcotest.(check int) (field ^ ": first frame") 1 pos;
        Alcotest.(check bool)
          (field ^ ": names the field in " ^ reason)
          true
          (String.starts_with ~prefix:("Schedulable: " ^ field ^ " ") reason))
    [
      ("pid", S.Private.max_pid + 1, 0, 1);
      ("cpu", 1, S.Private.max_cpu + 1, 1);
      ("generation", 1, 0, S.Private.max_generation + 1);
      ("pid", -1, 0, 1);
    ];
  (* the limits themselves decode *)
  match Enoki.Replay.Private.parse (log ~pid:S.Private.max_pid ~cpu:S.Private.max_cpu ~gen:S.Private.max_generation) with
  | [ Call { call = Task_wakeup { sched; _ }; _ } ] ->
    Alcotest.(check (list int)) "max fields" [ S.Private.max_pid; S.Private.max_cpu; S.Private.max_generation ]
      [ S.pid sched; S.cpu sched; S.generation sched ]
  | _ -> Alcotest.fail "expected one task_wakeup"

(* [k] bytes of the header, then anything: near misses included *)
let prop_headerless_bytes_rejected (k, rest) =
  let header = Enoki.Record.magic in
  let s = String.sub header 0 (k mod (String.length header + 1)) ^ rest in
  QCheck.assume
    (String.length s < String.length header
    || String.sub s 0 (String.length header) <> header);
  match Enoki.Replay.Private.parse_full s with
  | exception Enoki.Replay.Malformed_log { pos = 0; _ } -> true
  | _ -> false

let prop_upgrade_preserves_tasks seed =
  let b =
    Workloads.Setup.build ~topology:Kernsim.Topology.one_socket
      (Workloads.Setup.Enoki_sched (module Schedulers.Wfq))
  in
  let rng = Stats.Prng.create ~seed in
  let pids, ch, _ = spawn_random_workload b.machine ~policy:b.policy ~rng ~tasks:8 in
  let e = Option.get b.enoki in
  (* several upgrades at random times under load *)
  for i = 1 to 3 do
    M.at b.machine
      ~delay:((i * Kernsim.Time.ms 20) + Stats.Prng.int rng (Kernsim.Time.ms 10))
      (fun () ->
        match Enoki.Enoki_c.upgrade e (module Schedulers.Wfq) with
        | Ok _ -> ()
        | Error exn -> raise exn)
  done;
  M.run_for b.machine (Kernsim.Time.ms 300);
  release b.machine ch;
  M.run_for b.machine (Kernsim.Time.ms 200);
  List.for_all
    (fun pid -> (Option.get (M.find_task b.machine pid)).T.state = T.Dead)
    pids
  && Enoki.Enoki_c.violations e = 0

(* a failed (incompatible) upgrade attempted during a fault storm must
   leave the old scheduler registered with the quiescing lock released —
   dispatch keeps working, every task still finishes, no token is lost *)
let prop_failed_upgrade_under_faults seed =
  let plan =
    match Fault.Plan.parse "latency:p=0.05,ns=100000" with
    | Ok p -> p
    | Error m -> failwith m
  in
  let wrapped = Fault.Inject.wrap ~seed ~plan (module Schedulers.Wfq) in
  let b =
    Workloads.Setup.build ~topology:Kernsim.Topology.one_socket
      (Workloads.Setup.Enoki_sched wrapped)
  in
  let rng = Stats.Prng.create ~seed in
  let pids, ch, _ = spawn_random_workload b.machine ~policy:b.policy ~rng ~tasks:8 in
  let e = Option.get b.enoki in
  (* Shinjuku does not recognise WFQ's transfer state: every attempt must
     fail with Incompatible and change nothing *)
  for i = 1 to 3 do
    M.at b.machine
      ~delay:((i * Kernsim.Time.ms 20) + Stats.Prng.int rng (Kernsim.Time.ms 10))
      (fun () ->
        match Enoki.Enoki_c.upgrade e (module Schedulers.Shinjuku) with
        | Error (Enoki.Upgrade.Incompatible _) -> ()
        | Error exn -> raise exn
        | Ok _ -> QCheck.Test.fail_report "incompatible upgrade must fail")
  done;
  M.run_for b.machine (Kernsim.Time.ms 300);
  release b.machine ch;
  M.run_for b.machine (Kernsim.Time.ms 200);
  if Enoki.Enoki_c.scheduler_name e <> "wfq+fault" then
    QCheck.Test.fail_reportf "old scheduler lost: %s registered (seed %d)"
      (Enoki.Enoki_c.scheduler_name e) seed;
  let unfinished =
    List.filter (fun pid -> (Option.get (M.find_task b.machine pid)).T.state <> T.Dead) pids
  in
  if unfinished <> [] then
    QCheck.Test.fail_reportf
      "%d tasks never finished after failed upgrades (seed %d): lock leaked or tokens lost"
      (List.length unfinished) seed;
  Enoki.Enoki_c.violations e = 0

let qtest ?(count = 25) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let seeds = QCheck.(int_bound 100_000)

let () =
  Alcotest.run "properties"
    [
      ( "liveness",
        List.map
          (fun ((name, _) as sched) ->
            qtest
              (Printf.sprintf "%s: random workloads finish, no violations" name)
              seeds (prop_tasks_finish sched))
          schedulers );
      ( "record-replay",
        [ qtest ~count:10 "recorded runs replay exactly" seeds prop_record_replay_roundtrip ] );
      ( "messages",
        [
          qtest ~count:200 "fuzzed encode/decode" QCheck.(quad int int int int)
            prop_message_fuzz_roundtrip;
          qtest ~count:200 "adversarial payloads round-trip byte-exact"
            QCheck.(pair adversarial_string adversarial_string)
            prop_adversarial_payload_roundtrip;
          qtest ~count:100 "binary replies round-trip" QCheck.(pair int int)
            prop_binary_reply_roundtrip;
          qtest ~count:2000 "mutated logs decode or raise Malformed_log" mutation
            prop_mutated_log_rejected_cleanly;
          qtest ~count:200 "headerless bytes raise Malformed_log"
            QCheck.(pair small_nat string)
            prop_headerless_bytes_rejected;
          qtest ~count:1000 "token pack/unpack round-trips over the field ranges" token_fields
            prop_token_pack_roundtrip;
          Alcotest.test_case "out-of-range token fields raise Malformed_log" `Quick
            test_out_of_range_token_rejected;
        ] );
      ( "upgrade",
        [
          qtest ~count:10 "upgrades under load lose nothing" seeds prop_upgrade_preserves_tasks;
          qtest ~count:10 "failed upgrades under faults leave the old version intact" seeds
            prop_failed_upgrade_under_faults;
        ] );
    ]
