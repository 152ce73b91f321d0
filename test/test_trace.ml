(* Tests for the schedtrace subsystem: tracer transport, derived spans,
   exporters, and the online invariant sanitizer — including deliberately
   broken schedulers proving each invariant class fires. *)

module M = Kernsim.Machine
module T = Kernsim.Task
module Sched = Enoki.Schedulable

let check = Alcotest.check

(* the ftrace document as [Export.save] writes it *)
let saved_ftrace events =
  let path = Filename.temp_file "trace" ".txt" in
  Trace.Export.save ~path Trace.Export.Ftrace events;
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  text

let violations_of_kind s k =
  List.filter (fun (v : Trace.Sanitizer.violation) -> v.vkind = k) (Trace.Sanitizer.violations s)

let one_socket = Kernsim.Topology.one_socket

(* ---------- a minimal JSON syntax validator ----------

   Enough to assert the Chrome export is well-formed JSON without taking a
   dependency: validates the full value grammar and fails on trailing
   garbage. *)
module Json_check = struct
  exception Bad of int

  let validate s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      if peek () = Some c then advance () else raise (Bad !pos)
    in
    let literal lit =
      String.iter (fun c -> expect c) lit
    in
    let string_lit () =
      expect '"';
      let rec body () =
        match peek () with
        | None -> raise (Bad !pos)
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
          | Some 'u' ->
            advance ();
            for _ = 1 to 4 do
              match peek () with
              | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
              | _ -> raise (Bad !pos)
            done
          | _ -> raise (Bad !pos));
          body ()
        | Some _ ->
          advance ();
          body ()
      in
      body ()
    in
    let number () =
      let digits () =
        let any = ref false in
        let rec go () =
          match peek () with
          | Some '0' .. '9' ->
            any := true;
            advance ();
            go ()
          | _ -> ()
        in
        go ();
        if not !any then raise (Bad !pos)
      in
      if peek () = Some '-' then advance ();
      digits ();
      if peek () = Some '.' then begin
        advance ();
        digits ()
      end;
      match peek () with
      | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
      | _ -> ()
    in
    let rec value () =
      skip_ws ();
      (match peek () with
      | Some '{' -> obj ()
      | Some '[' -> arr ()
      | Some '"' -> string_lit ()
      | Some 't' -> literal "true"
      | Some 'f' -> literal "false"
      | Some 'n' -> literal "null"
      | Some ('-' | '0' .. '9') -> number ()
      | _ -> raise (Bad !pos));
      skip_ws ()
    and obj () =
      expect '{';
      skip_ws ();
      if peek () = Some '}' then advance ()
      else begin
        let rec members () =
          skip_ws ();
          string_lit ();
          skip_ws ();
          expect ':';
          value ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> raise (Bad !pos)
        in
        members ()
      end
    and arr () =
      expect '[';
      skip_ws ();
      if peek () = Some ']' then advance ()
      else begin
        let rec elements () =
          value ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> raise (Bad !pos)
        in
        elements ()
      end
    in
    value ();
    if !pos <> n then raise (Bad !pos)
end

(* ---------- tracer transport ---------- *)

let test_tracer_counts_and_drops () =
  let tr = Trace.Tracer.create ~capacity:4 ~nr_cpus:2 () in
  let seen = ref 0 in
  Trace.Tracer.subscribe tr (fun ~ts:_ ~cpu:_ _ _ _ _ _ -> incr seen);
  for i = 1 to 6 do
    Trace.Tracer.emit tr ~ts:(i * 10) ~cpu:0 Trace.Event.Tick
  done;
  Trace.Tracer.emit tr ~ts:5 ~cpu:1 (Trace.Event.Dispatch { pid = 7 });
  check Alcotest.int "emitted counts every offer" 7 (Trace.Tracer.emitted tr);
  check Alcotest.int "cpu 0 overran by 2" 2 (Trace.Tracer.Private.dropped_of_cpu tr 0);
  check Alcotest.int "total drops" 2 (Trace.Tracer.dropped tr);
  check Alcotest.int "subscriber saw every event pre-drop" 7 !seen;
  check Alcotest.int "buffered = kept events" 5 (Trace.Tracer.buffered tr);
  let events = Trace.Tracer.events tr in
  check Alcotest.int "drained all kept events" 5 (List.length events);
  check Alcotest.bool "timestamp sorted" true
    (List.for_all2
       (fun (a : Trace.Event.t) (b : Trace.Event.t) -> a.ts <= b.ts)
       (List.filteri (fun i _ -> i < 4) events)
       (List.tl events));
  check Alcotest.int "drain is destructive" 0 (List.length (Trace.Tracer.events tr))

let test_tracer_folds_out_of_range_cpu () =
  let tr = Trace.Tracer.create ~nr_cpus:2 () in
  Trace.Tracer.emit tr ~ts:1 ~cpu:99 Trace.Event.Tick;
  Trace.Tracer.emit tr ~ts:2 ~cpu:(-1) Trace.Event.Idle;
  match Trace.Tracer.events tr with
  | [ a; b ] ->
    check Alcotest.int "folded onto cpu 0" 0 a.Trace.Event.cpu;
    check Alcotest.int "negative folded too" 0 b.Trace.Event.cpu
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l)

(* A ring of 4 drained of 3 events restarts at slot 3, so the next round's
   cold payloads go to slots 3, 0, 1 and 2 (the fifth is dropped), and are
   released as they drain. *)
let test_tracer_cold_kinds_wrap () =
  let tr = Trace.Tracer.create ~capacity:4 ~nr_cpus:1 () in
  let cold i = Trace.Event.Fleet_op { host = i; op = "drain" } in
  for i = 1 to 3 do
    Trace.Tracer.emit_tick tr ~ts:i ~cpu:0
  done;
  check Alcotest.int "first round" 3 (List.length (Trace.Tracer.events tr));
  let round = List.init 5 (fun i -> { Trace.Event.ts = 10 + i; cpu = 0; kind = cold i }) in
  List.iter (fun (e : Trace.Event.t) -> Trace.Tracer.emit tr ~ts:e.ts ~cpu:0 e.kind) round;
  check Alcotest.int "the fifth is dropped" 1 (Trace.Tracer.dropped tr);
  check Alcotest.bool "wrapped cold payloads drain intact" true
    (Trace.Tracer.events tr = List.filteri (fun i _ -> i < 4) round);
  Trace.Tracer.emit_dispatch tr ~ts:20 ~cpu:0 ~pid:3;
  check Alcotest.bool "a packed kind over a released cold slot" true
    (Trace.Tracer.events tr = [ { Trace.Event.ts = 20; cpu = 0; kind = Dispatch { pid = 3 } } ])

(* a ring's bytes must fit in one string; sizes past that are refused up
   front rather than overflowing the byte count *)
let test_tracer_rejects_oversized_capacity () =
  List.iter
    (fun capacity ->
      match Trace.Tracer.create ~capacity ~nr_cpus:1 () with
      | _ -> Alcotest.failf "capacity %d accepted" capacity
      | exception Invalid_argument msg ->
        check Alcotest.bool
          (Printf.sprintf "%d: %s" capacity msg)
          true
          (String.starts_with ~prefix:"Tracer.create: " msg))
    [ Trace.Slots.max_capacity + 1; max_int / Trace.Slots.Private.slot_bytes + 1; max_int; 0; -1 ]

(* A field too wide for a slot's packed word (a pid past 31 bits, a cpu
   past 24 or below 0) is stored whole, as a cold slot, and drains intact. *)
let test_slots_wide_fields () =
  let module E = Trace.Event in
  let tr = Trace.Tracer.create ~capacity:8 ~nr_cpus:2 () in
  let big = 1 lsl 40 in
  Trace.Tracer.emit_switch tr ~ts:1 ~cpu:1 ~prev:3 ~next:big;
  Trace.Tracer.emit_wakeup tr ~ts:2 ~cpu:1 ~pid:big ~waker_cpu:(-big);
  Trace.Tracer.emit_migrate tr ~ts:3 ~cpu:0 ~pid:big ~from_cpu:min_int ~to_cpu:max_int;
  Trace.Tracer.emit_switch tr ~ts:4 ~cpu:0 ~prev:(-1) ~next:((1 lsl 30) - 1);
  check
    Alcotest.(list string)
    "drained whole"
    (List.map E.to_string
       [
         { E.ts = 1; cpu = 1; kind = Sched_switch { prev = Some 3; next = Some big } };
         { ts = 2; cpu = 1; kind = Wakeup { pid = big; waker_cpu = -big; affinity = None } };
         { ts = 3; cpu = 0; kind = Migrate { pid = big; from_cpu = min_int; to_cpu = max_int } };
         { ts = 4; cpu = 0; kind = Sched_switch { prev = None; next = Some ((1 lsl 30) - 1) } };
       ])
    (List.map E.to_string (Trace.Tracer.events tr));
  let w = Trace.Slots.create 4 in
  let cpus = [ -1; 1 lsl 24; (1 lsl 24) - 1; 0 ] in
  List.iteri (fun i cpu -> Trace.Slots.set w i ~ts:i ~cpu E.T_dispatch 7 0 0 E.Tick) cpus;
  check
    Alcotest.(list string)
    "slots whole"
    (List.mapi (fun ts cpu -> E.to_string { E.ts; cpu; kind = Dispatch { pid = 7 } }) cpus)
    (List.init 4 (fun i -> E.to_string (Trace.Slots.take w i)))

let test_tag_index_roundtrip () =
  let module E = Trace.Event in
  let tags =
    E.
      [ T_switch; T_wakeup; T_dispatch; T_preempt; T_yield; T_block; T_exit; T_migrate; T_tick;
        T_idle; T_lock_acquire; T_lock_release; T_msg_call; T_dsq_insert; T_dsq_consume; T_cold ]
  in
  check Alcotest.int "every tag listed" E.Private.nr_tags (List.length tags);
  List.iteri
    (fun i tag ->
      check Alcotest.int "declaration order" i (E.tag_index tag);
      check Alcotest.bool "round trip" true (E.tags.(E.tag_index tag) = tag))
    tags;
  List.iter
    (fun i ->
      match E.tags.(i) with
      | _ -> Alcotest.failf "index %d decoded" i
      | exception Invalid_argument _ -> ())
    [ -1; E.Private.nr_tags; E.Private.nr_tags + 1; 255; min_int; max_int ]

(* ---------- event generators (all 25 kinds) ---------- *)

module E = Trace.Event

(* strings mixing plain bytes with everything JSON must escape *)
let gen_str =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'z'; ' '; ','; '='; '"'; '\\'; '\n'; '\t'; '\r'; '\001'; '\031' ])
      (int_range 0 6))

let gen_kind =
  let open QCheck.Gen in
  let pid = int_range 0 5 and small = int_range 0 1_000 in
  oneof
    [
      map2 (fun prev next -> E.Sched_switch { prev; next }) (opt pid) (opt pid);
      map3
        (fun pid waker_cpu affinity -> E.Wakeup { pid; waker_cpu; affinity })
        pid (int_range 0 3)
        (opt (list_size (int_range 0 3) (int_range 0 7)));
      map (fun pid -> E.Dispatch { pid }) pid;
      map (fun pid -> E.Preempt { pid }) pid;
      map (fun pid -> E.Yield { pid }) pid;
      map (fun pid -> E.Block { pid }) pid;
      map (fun pid -> E.Exit { pid }) pid;
      map3 (fun pid from_cpu to_cpu -> E.Migrate { pid; from_cpu; to_cpu }) pid (int_range 0 3)
        (int_range 0 3);
      return E.Tick;
      return E.Idle;
      map2 (fun pid err -> E.Pnt_err { pid; err }) pid gen_str;
      map (fun lock_id -> E.Lock_acquire { lock_id }) small;
      map (fun lock_id -> E.Lock_release { lock_id }) small;
      map (fun name -> E.Msg_call { name }) gen_str;
      (* every crossing name, as the boundary emits it (the very strings of
         [call_names]), one unknown name and one that needs escaping *)
      map
        (fun name -> E.Msg_call { name })
        (oneofl (Array.to_list E.call_names @ [ "not_a_call"; "pick \"next\"\n\\task" ]));
      map2 (fun call reason -> E.Panic { call; reason }) gen_str gen_str;
      map (fun fallback -> E.Failover { fallback }) gen_str;
      map3 (fun call charged budget -> E.Overrun { call; charged; budget }) gen_str small small;
      map (fun reason -> E.Watchdog_fire { reason }) gen_str;
      map (fun tick -> E.Metric_flush { tick }) small;
      map2 (fun dsq pid -> E.Dsq_insert { dsq; pid }) gen_str pid;
      map3 (fun dsq pid wait -> E.Dsq_consume { dsq; pid; wait }) gen_str pid small;
      map2 (fun host op -> E.Fleet_op { host; op }) (int_range 0 7) gen_str;
      map2 (fun req tenant -> E.Req_enqueue { req; tenant }) small (int_range 0 3);
      map2 (fun req pid -> E.Req_take { req; pid }) small pid;
      map2 (fun req pid -> E.Req_done { req; pid }) small pid;
    ]

let print_events evs = String.concat "\n" (List.map E.to_string evs)

(* ---------- drain order ----------

   The tracer's merged drain against a reference model: each cpu keeps the
   first [capacity] events offered since its last drain (a full ring drops
   the newest), and the drain is the per-cpu concatenation stably sorted on
   the timestamp.  Four to six rounds per case of up to one and a half
   rings' worth of events each: every drain leaves a ring's head where its
   last event was, so later rounds start mid-buffer and wrap past the end,
   cold kinds (about half of [gen_kind]) landing in wrapped slots too. *)

type drain_case = {
  nr_cpus : int;
  capacity : int;
  monotone : bool; (* per-cpu time order (the merge); false exercises the sort fallback *)
  rounds : (int * int * E.kind) list list; (* (cpu, ts step or raw ts, kind) *)
}

let gen_drain_case =
  let open QCheck.Gen in
  let* nr_cpus = int_range 1 5 in
  let* capacity = frequency [ (1, int_range 1 6); (1, int_range 7 64) ] in
  let* monotone = frequency [ (4, return true); (1, return false) ] in
  let op = triple (int_range 0 (nr_cpus - 1)) (int_range 0 3) gen_kind in
  let* nr_rounds = int_range 4 6 in
  let+ rounds =
    list_repeat nr_rounds (list_size (int_range 0 ((capacity * nr_cpus * 3 / 2) + 4)) op)
  in
  { nr_cpus; capacity; monotone; rounds }

let print_drain_case c =
  Printf.sprintf "nr_cpus=%d capacity=%d monotone=%b\n%s" c.nr_cpus c.capacity c.monotone
    (String.concat "\n--- drain ---\n"
       (List.map
          (fun ops ->
            String.concat "\n"
              (List.map (fun (cpu, d, k) -> Printf.sprintf "cpu %d +%d %s" cpu d (E.name k)) ops))
          c.rounds))

let prop_drain_matches_sorted_concat c =
  let tr = Trace.Tracer.create ~capacity:c.capacity ~nr_cpus:c.nr_cpus () in
  let clock = ref 0 in
  List.for_all
    (fun ops ->
      let kept = Array.make c.nr_cpus [] in
      List.iter
        (fun (cpu, d, kind) ->
          (* monotone: a shared clock stepping by 0..3, so equal timestamps
             recur across cpus; otherwise the raw step is the timestamp *)
          let ts =
            if c.monotone then begin
              clock := !clock + d;
              !clock
            end
            else d
          in
          Trace.Tracer.emit tr ~ts ~cpu kind;
          if List.length kept.(cpu) < c.capacity then
            kept.(cpu) <- { E.ts; cpu; kind } :: kept.(cpu))
        ops;
      let expected =
        Array.to_list kept
        |> List.concat_map List.rev
        |> List.stable_sort (fun (a : E.t) (b : E.t) -> Int.compare a.ts b.ts)
      in
      let got = Trace.Tracer.events tr in
      if got <> expected then
        QCheck.Test.fail_reportf "drain:\n%s\nexpected:\n%s" (print_events got)
          (print_events expected);
      Trace.Tracer.buffered tr = 0)
    c.rounds

(* ---------- derived spans ---------- *)

let ev ts cpu kind = { Trace.Event.ts; cpu; kind }

let test_spans_from_synthetic_stream () =
  let events =
    [
      ev 10 0 (Trace.Event.Wakeup { pid = 5; waker_cpu = 0; affinity = None });
      ev 30 1 (Trace.Event.Dispatch { pid = 5 });
      ev 50 1 (Trace.Event.Preempt { pid = 5 });
      ev 80 1 (Trace.Event.Dispatch { pid = 5 });
      ev 90 1 (Trace.Event.Block { pid = 5 });
    ]
  in
  let spans = Trace.Spans.Private.of_events events in
  let wd = List.filter (fun (s : Trace.Spans.t) -> s.kind = Trace.Spans.Wakeup_to_dispatch) spans in
  let pr = List.filter (fun (s : Trace.Spans.t) -> s.kind = Trace.Spans.Preempt_to_resched) spans in
  (match wd with
  | [ s ] ->
    check Alcotest.int "wakeup->dispatch duration" 20 (s.stop_ts - s.start_ts);
    check Alcotest.int "span pid" 5 s.pid
  | l -> Alcotest.failf "expected 1 wakeup span, got %d" (List.length l));
  match pr with
  | [ s ] -> check Alcotest.int "preempt->resched duration" 30 (s.stop_ts - s.start_ts)
  | l -> Alcotest.failf "expected 1 preempt span, got %d" (List.length l)

(* A migration span covers the full off-cpu displacement, first Migrate to
   the next Dispatch, even when the task hops through several cpus. *)
let test_spans_migration () =
  let events =
    [
      ev 10 0 (Trace.Event.Migrate { pid = 5; from_cpu = 0; to_cpu = 1 });
      ev 25 1 (Trace.Event.Migrate { pid = 5; from_cpu = 1; to_cpu = 2 });
      ev 40 2 (Trace.Event.Dispatch { pid = 5 });
      (* a blocked task's pending migration must not leak a span *)
      ev 50 0 (Trace.Event.Migrate { pid = 7; from_cpu = 0; to_cpu = 1 });
      ev 60 0 (Trace.Event.Block { pid = 7 });
      ev 70 1 (Trace.Event.Dispatch { pid = 7 });
    ]
  in
  let mg =
    List.filter
      (fun (s : Trace.Spans.t) -> s.kind = Trace.Spans.Migration)
      (Trace.Spans.Private.of_events events)
  in
  match mg with
  | [ s ] ->
    check Alcotest.int "span pid" 5 s.pid;
    check Alcotest.int "chained hops measured from the first" 30 (s.stop_ts - s.start_ts);
    check Alcotest.int "closed on the dispatching cpu" 2 s.cpu
  | l -> Alcotest.failf "expected 1 migration span, got %d" (List.length l)

(* Ingress-wait spans are keyed by request-id, not pid, and must survive a
   fleet-orchestration event stream interleaved between enqueue and take. *)
let test_spans_ingress_wait_interleaved () =
  let events =
    [
      ev 100 0 (Trace.Event.Req_enqueue { req = 41; tenant = 0 });
      ev 105 0 (Trace.Event.Fleet_op { host = 1; op = "drain" });
      ev 110 0 (Trace.Event.Req_enqueue { req = 42; tenant = 1 });
      ev 120 1 (Trace.Event.Wakeup { pid = 9; waker_cpu = 0; affinity = None });
      ev 130 1 (Trace.Event.Dispatch { pid = 9 });
      (* later requests may be taken first (work stealing off the queue) *)
      ev 140 1 (Trace.Event.Req_take { req = 42; pid = 9 });
      ev 150 0 (Trace.Event.Fleet_op { host = 1; op = "admit" });
      ev 160 2 (Trace.Event.Req_take { req = 41; pid = 8 });
      ev 170 2 (Trace.Event.Req_done { req = 41; pid = 8 });
      (* a take with no enqueue (pre-trace backlog) must be ignored *)
      ev 180 2 (Trace.Event.Req_take { req = 99; pid = 8 });
    ]
  in
  let ing =
    List.filter
      (fun (s : Trace.Spans.t) -> s.kind = Trace.Spans.Ingress_wait)
      (Trace.Spans.Private.of_events events)
  in
  match List.sort (fun (a : Trace.Spans.t) b -> compare a.start_ts b.start_ts) ing with
  | [ a; b ] ->
    check Alcotest.int "req 41 waited enqueue->take" 60 (a.stop_ts - a.start_ts);
    check Alcotest.int "req 41 span pid = taker" 8 a.pid;
    check Alcotest.int "req 42 waited enqueue->take" 30 (b.stop_ts - b.start_ts);
    check Alcotest.int "req 42 span pid = taker" 9 b.pid
  | l -> Alcotest.failf "expected 2 ingress spans, got %d" (List.length l)

(* ---------- exporters, on a real run ---------- *)

let traced_pipe_run kind =
  let tracer = Trace.Tracer.create ~nr_cpus:(Kernsim.Topology.nr_cpus one_socket) () in
  let b = Workloads.Setup.build ~tracer ~topology:one_socket kind in
  ignore (Workloads.Pipe_bench.run b ~messages:2_000 ());
  Trace.Tracer.events tracer

let test_chrome_export_is_valid_json () =
  let events = traced_pipe_run (Workloads.Setup.Enoki_sched (module Schedulers.Wfq)) in
  check Alcotest.bool "events captured" true (List.length events > 100);
  let json = Trace.Export.chrome_json events in
  (try Json_check.validate json
   with Json_check.Bad pos -> Alcotest.failf "invalid JSON at byte %d" pos);
  (* sched_switch events must appear for at least two distinct cpus *)
  let switch_cpus =
    List.filter_map
      (fun (e : Trace.Event.t) ->
        match e.kind with Trace.Event.Sched_switch _ -> Some e.cpu | _ -> None)
      events
    |> List.sort_uniq Int.compare
  in
  check Alcotest.bool "sched_switch on >= 2 cpus" true (List.length switch_cpus >= 2);
  let contains needle =
    let nl = String.length needle and hl = String.length json in
    let rec go i = i + nl <= hl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "has traceEvents" true (contains "\"traceEvents\"");
  check Alcotest.bool "has sched_switch instants" true (contains "\"sched_switch\"");
  check Alcotest.bool "names the machine process" true (contains "\"machine\"")

let test_ftrace_export_format () =
  let events = traced_pipe_run (Workloads.Setup.Enoki_sched (module Schedulers.Fifo_sched)) in
  let text = saved_ftrace events in
  let lines = String.split_on_char '\n' text in
  check Alcotest.bool "has header" true
    (match lines with first :: _ -> first = "# tracer: schedtrace" | [] -> false);
  let body = List.filter (fun l -> l <> "" && l.[0] <> '#') lines in
  check Alcotest.int "one line per event (plus header)" (List.length events) (List.length body);
  check Alcotest.bool "lines carry the enoki- prefix" true
    (List.for_all
       (fun l ->
         let rec find i =
           i + 6 <= String.length l && (String.sub l i 6 = "enoki-" || find (i + 1))
         in
         find 0)
       body)

(* [Event.name] reads a table by [Event.index]; both must follow the
   constructors *)
let test_event_names () =
  let named =
    [
      (E.Sched_switch { prev = None; next = None }, "sched_switch");
      (E.Wakeup { pid = 1; waker_cpu = 0; affinity = None }, "wakeup");
      (E.Dispatch { pid = 1 }, "dispatch");
      (E.Preempt { pid = 1 }, "preempt");
      (E.Yield { pid = 1 }, "yield");
      (E.Block { pid = 1 }, "block");
      (E.Exit { pid = 1 }, "exit");
      (E.Migrate { pid = 1; from_cpu = 0; to_cpu = 1 }, "migrate");
      (E.Tick, "tick");
      (E.Idle, "idle");
      (E.Pnt_err { pid = 1; err = "e" }, "pnt_err");
      (E.Lock_acquire { lock_id = 1 }, "lock_acquire");
      (E.Lock_release { lock_id = 1 }, "lock_release");
      (E.Msg_call { name = "balance" }, "msg_call");
      (E.Panic { call = "c"; reason = "r" }, "panic");
      (E.Failover { fallback = "cfs" }, "failover");
      (E.Overrun { call = "c"; charged = 2; budget = 1 }, "overrun");
      (E.Watchdog_fire { reason = "r" }, "watchdog_fire");
      (E.Metric_flush { tick = 1 }, "metric_flush");
      (E.Dsq_insert { dsq = "d"; pid = 1 }, "dsq_insert");
      (E.Dsq_consume { dsq = "d"; pid = 1; wait = 0 }, "dsq_consume");
      (E.Fleet_op { host = 0; op = "drain" }, "fleet_op");
      (E.Req_enqueue { req = 1; tenant = 0 }, "req_enqueue");
      (E.Req_take { req = 1; pid = 1 }, "req_take");
      (E.Req_done { req = 1; pid = 1 }, "req_done");
    ]
  in
  List.iteri
    (fun i (kind, name) ->
      check Alcotest.string "name" name (E.name kind);
      check Alcotest.int (name ^ " index") i (E.index kind))
    named;
  check Alcotest.int "every kind named" (Array.length E.names) (List.length named)

let test_format_of_string_roundtrip () =
  check Alcotest.bool "chrome" true (Trace.Export.format_of_string "chrome" = Some Trace.Export.Chrome);
  check Alcotest.bool "ftrace" true (Trace.Export.format_of_string "ftrace" = Some Trace.Export.Ftrace);
  check Alcotest.bool "unknown rejected" true (Trace.Export.format_of_string "perf" = None)

(* ---------- writer identity ----------

   The exporters write each document with [Export.document]'s direct
   writers; this is the Printf renderer they replaced, kept verbatim (down to its own copy of the
   payload listing) as the byte-for-byte oracle.  Its latency spans come
   from its own model of [Spans] on association lists, so the property
   holds their derivation as well as their text. *)

module Printf_export = struct
  let opt_pid = function None -> "idle" | Some p -> string_of_int p

  let args = function
    | E.Sched_switch { prev; next } -> [ ("prev", opt_pid prev); ("next", opt_pid next) ]
    | E.Wakeup { pid; waker_cpu; affinity } ->
      ("pid", string_of_int pid) :: ("waker_cpu", string_of_int waker_cpu)
      ::
      (match affinity with
      | None -> []
      | Some cpus -> [ ("affinity", String.concat "," (List.map string_of_int cpus)) ])
    | E.Dispatch { pid } | E.Preempt { pid } | E.Yield { pid } | E.Block { pid } | E.Exit { pid }
      ->
      [ ("pid", string_of_int pid) ]
    | E.Migrate { pid; from_cpu; to_cpu } ->
      [ ("pid", string_of_int pid); ("from", string_of_int from_cpu); ("to", string_of_int to_cpu) ]
    | E.Tick | E.Idle -> []
    | E.Pnt_err { pid; err } -> [ ("pid", string_of_int pid); ("err", err) ]
    | E.Lock_acquire { lock_id } | E.Lock_release { lock_id } -> [ ("lock", string_of_int lock_id) ]
    | E.Msg_call { name } -> [ ("call", name) ]
    | E.Panic { call; reason } -> [ ("call", call); ("reason", reason) ]
    | E.Failover { fallback } -> [ ("fallback", fallback) ]
    | E.Overrun { call; charged; budget } ->
      [ ("call", call); ("charged", string_of_int charged); ("budget", string_of_int budget) ]
    | E.Watchdog_fire { reason } -> [ ("reason", reason) ]
    | E.Metric_flush { tick } -> [ ("tick", string_of_int tick) ]
    | E.Dsq_insert { dsq; pid } -> [ ("dsq", dsq); ("pid", string_of_int pid) ]
    | E.Dsq_consume { dsq; pid; wait } ->
      [ ("dsq", dsq); ("pid", string_of_int pid); ("wait", string_of_int wait) ]
    | E.Fleet_op { host; op } -> [ ("host", string_of_int host); ("op", op) ]
    | E.Req_enqueue { req; tenant } ->
      [ ("req", string_of_int req); ("tenant", string_of_int tenant) ]
    | E.Req_take { req; pid } | E.Req_done { req; pid } ->
      [ ("req", string_of_int req); ("pid", string_of_int pid) ]

  let json_escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let us_of_ns ns = float_of_int ns /. 1e3

  let json_args kvs =
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
           kvs)
    ^ "}"

  let meta_event ~pid ~tid ~name ~value =
    Printf.sprintf "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
      name pid tid (json_escape value)

  let instant_event (ev : E.t) =
    Printf.sprintf
      "{\"name\":\"%s\",\"cat\":\"sched\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":0,\"tid\":%d,\"args\":%s}"
      (E.name ev.kind) (us_of_ns ev.ts) ev.cpu
      (json_args (args ev.kind))

  let complete_event ~name ~cat ~pid ~tid ~start_ns ~stop_ns ~args =
    Printf.sprintf
      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":%s}"
      (json_escape name) cat (us_of_ns start_ns)
      (us_of_ns (max 0 (stop_ns - start_ns)))
      pid tid (json_args args)

  let run_slices events =
    let nr_cpus = List.fold_left (fun acc (ev : E.t) -> max acc (ev.cpu + 1)) 1 events in
    let open_slice = Array.make nr_cpus None in
    let slices = ref [] in
    let close cpu stop_ns =
      match open_slice.(cpu) with
      | Some (pid, start_ns) ->
        open_slice.(cpu) <- None;
        slices := (cpu, pid, start_ns, stop_ns) :: !slices
      | None -> ()
    in
    List.iter
      (fun (ev : E.t) ->
        match ev.kind with
        | E.Dispatch { pid } ->
          close ev.cpu ev.ts;
          open_slice.(ev.cpu) <- Some (pid, ev.ts)
        | E.Preempt { pid } | E.Yield { pid } | E.Block { pid } | E.Exit { pid } -> (
          match open_slice.(ev.cpu) with
          | Some (p, _) when p = pid -> close ev.cpu ev.ts
          | Some _ | None -> ())
        | E.Idle | E.Sched_switch { next = None; _ } -> close ev.cpu ev.ts
        | _ -> ())
      events;
    let last_ts = List.fold_left (fun acc (ev : E.t) -> max acc ev.ts) 0 events in
    Array.iteri (fun cpu _ -> close cpu last_ts) open_slice;
    (nr_cpus, List.rev !slices)

  (* (pid, cpu, tid, start, stop) per span, in the order they close; tid
     is the span kind's thread in the "latency spans" process *)
  let spans_of events =
    let wake = ref [] and preempt = ref [] and migrate = ref [] and ingress = ref [] in
    let remember tbl k ts = if not (List.mem_assoc k !tbl) then tbl := (k, ts) :: !tbl in
    let forget tbl k = tbl := List.remove_assoc k !tbl in
    let spans = ref [] in
    let span pid cpu tid start stop = spans := (pid, cpu, tid, start, stop) :: !spans in
    List.iter
      (fun (ev : E.t) ->
        match ev.kind with
        | E.Wakeup { pid; _ } ->
          remember wake pid ev.ts;
          forget preempt pid
        | E.Preempt { pid } | E.Yield { pid } -> remember preempt pid ev.ts
        | E.Migrate { pid; _ } -> remember migrate pid ev.ts
        | E.Dispatch { pid } ->
          (match List.assoc_opt pid !wake with
          | Some start ->
            forget wake pid;
            span pid ev.cpu 0 start ev.ts
          | None -> (
            match List.assoc_opt pid !preempt with
            | Some start -> span pid ev.cpu 1 start ev.ts
            | None -> ()));
          (match List.assoc_opt pid !migrate with
          | Some start ->
            forget migrate pid;
            span pid ev.cpu 2 start ev.ts
          | None -> ());
          forget preempt pid
        | E.Block { pid } | E.Exit { pid } ->
          forget wake pid;
          forget preempt pid;
          forget migrate pid
        | E.Req_enqueue { req; _ } -> remember ingress req ev.ts
        | E.Req_take { req; pid } -> (
          match List.assoc_opt req !ingress with
          | Some start ->
            forget ingress req;
            span pid ev.cpu 3 start ev.ts
          | None -> ())
        | _ -> ())
      events;
    List.rev !spans

  let chrome_json events =
    let nr_cpus, slices = run_slices events in
    let buf = Buffer.create 65536 in
    Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    let first = ref true in
    let add line =
      if !first then first := false else Buffer.add_char buf ',';
      Buffer.add_string buf line
    in
    add (meta_event ~pid:0 ~tid:0 ~name:"process_name" ~value:"machine");
    for cpu = 0 to nr_cpus - 1 do
      add (meta_event ~pid:0 ~tid:cpu ~name:"thread_name" ~value:(Printf.sprintf "cpu %d" cpu))
    done;
    List.iter
      (fun (cpu, pid, start_ns, stop_ns) ->
        add
          (complete_event
             ~name:(Printf.sprintf "pid %d" pid)
             ~cat:"run" ~pid:0 ~tid:cpu ~start_ns ~stop_ns
             ~args:[ ("pid", string_of_int pid) ]))
      slices;
    List.iter (fun ev -> add (instant_event ev)) events;
    let span_list = spans_of events in
    if span_list <> [] then begin
      add (meta_event ~pid:1 ~tid:0 ~name:"process_name" ~value:"latency spans");
      add (meta_event ~pid:1 ~tid:0 ~name:"thread_name" ~value:"wakeup_to_dispatch");
      add (meta_event ~pid:1 ~tid:1 ~name:"thread_name" ~value:"preempt_to_resched");
      add (meta_event ~pid:1 ~tid:2 ~name:"thread_name" ~value:"migration");
      add (meta_event ~pid:1 ~tid:3 ~name:"thread_name" ~value:"ingress_wait");
      List.iter
        (fun (pid, cpu, tid, start_ns, stop_ns) ->
          add
            (complete_event
               ~name:(Printf.sprintf "pid %d" pid)
               ~cat:"latency" ~pid:1 ~tid ~start_ns ~stop_ns
               ~args:[ ("pid", string_of_int pid); ("cpu", string_of_int cpu) ]))
        span_list
    end;
    Buffer.add_string buf "]}";
    Buffer.contents buf

  let ftrace_line (ev : E.t) =
    let secs = ev.ts / 1_000_000_000 in
    let usecs = ev.ts mod 1_000_000_000 / 1_000 in
    let args =
      match args ev.kind with
      | [] -> ""
      | kvs -> " " ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)
    in
    Printf.sprintf "          enoki-%-5s [%03d] %6d.%06d: %s:%s"
      (match E.pid_of ev.kind with Some p -> string_of_int p | None -> "0")
      ev.cpu secs usecs (E.name ev.kind) args

  let ftrace events =
    let buf = Buffer.create 65536 in
    Buffer.add_string buf "# tracer: schedtrace\n";
    Buffer.add_string buf "#           TASK-PID    [CPU]  TIMESTAMP: EVENT: ARGS\n";
    List.iter
      (fun ev ->
        Buffer.add_string buf (ftrace_line ev);
        Buffer.add_char buf '\n')
      events;
    Buffer.contents buf
end

(* mostly small timestamps, so spans and slices have sensible durations,
   plus the full 0 .. 2^42 ns range for the microsecond formatting.  Up to
   500 events over a wide machine, so run slices and spans interleave
   across many cpus: mostly cpus 0-3 or 0-79, now and then one past the
   256 whose instant text the exporter prepares. *)
let gen_export_events =
  let open QCheck.Gen in
  let ts = frequency [ (3, int_range 0 5_000); (1, int_range 0 (1 lsl 42)) ] in
  let* cpus = frequency [ (4, return 3); (4, return 79); (1, return 300) ] in
  let cpu = if cpus = 300 then frequency [ (9, int_range 0 79); (1, int_range 250 300) ] else int_range 0 cpus in
  list_size
    (frequency [ (2, int_range 0 40); (1, int_range 41 500) ])
    (map3 (fun ts cpu kind -> { E.ts; cpu; kind }) ts cpu gen_kind)

(* Traces built around the event at [List.length / 2], where the Chrome
   export splits its filling walk in two: [k] events, then run slices
   opened on several cpus, the middle event, then as many events again (or
   one fewer).  The middle event closes a slice (preempt or block of the
   running pid, idle, a switch to idle), opens one, or is any kind at all;
   it often shares its timestamp with the instant before it.  Also the
   0-, 1- and 2-event traces. *)
let gen_split_events =
  let open QCheck.Gen in
  let* nr_cpus = int_range 1 8 in
  let step = frequency [ (3, return 0); (2, int_range 1 50) ] in
  let event ts cpu kind = { E.ts; cpu; kind } in
  let any = map2 (event 0) (int_range 0 (nr_cpus - 1)) gen_kind in
  let* tiny = frequency [ (1, return true); (5, return false) ] in
  if tiny then list_size (int_range 0 2) any
  else
    let* before = list_size (int_range 0 20) any in
    let* running = list_repeat nr_cpus (int_range 0 5) in
    let* cpu = int_range 0 (nr_cpus - 1) in
    let pid = List.nth running cpu in
    let* middle =
      oneof
        [
          return (E.Preempt { pid });
          return (E.Block { pid });
          return E.Idle;
          map (fun prev -> E.Sched_switch { prev; next = None }) (opt (int_range 0 5));
          map (fun pid -> E.Dispatch { pid }) (int_range 0 5);
          gen_kind;
        ]
    in
    let prefix = before @ List.mapi (fun cpu pid -> event 0 cpu (E.Dispatch { pid })) running in
    let k = List.length prefix in
    let* after = list_repeat k any in
    let* after = if k > 0 then oneofl [ after; List.tl after ] else return after in
    (* nondecreasing timestamps, a step of 0 sharing the one before *)
    let* steps = list_repeat (k + 1 + List.length after) step in
    let ts = ref 0 in
    return
      (List.map2
         (fun (ev : E.t) step ->
           ts := !ts + step;
           { ev with ts = !ts })
         (prefix @ (event 0 cpu middle :: after))
         steps)

let prop_writers_match_printf events =
  let same what got expected =
    if got <> expected then
      QCheck.Test.fail_reportf "%s differs:\n got: %s\nwant: %s" what got expected
  in
  let chrome = Trace.Export.chrome_json events in
  same "chrome_json" chrome (Printf_export.chrome_json events);
  same "ftrace" (saved_ftrace events) (Printf_export.ftrace events);
  (try Json_check.validate chrome
   with Json_check.Bad pos -> QCheck.Test.fail_reportf "invalid JSON at byte %d" pos);
  true

(* ---------- sanitizer: clean runs for every in-tree scheduler ---------- *)

let sanitized_run ?(config = Trace.Sanitizer.default_config) kind workload =
  let nr_cpus = Kernsim.Topology.nr_cpus one_socket in
  let tracer = Trace.Tracer.create ~nr_cpus () in
  let s = Trace.Sanitizer.create ~config ~nr_cpus () in
  Trace.Sanitizer.attach s tracer;
  let b = Workloads.Setup.build ~tracer ~topology:one_socket kind in
  workload b;
  (s, b)

let pipe b = ignore (Workloads.Pipe_bench.run b ~messages:2_000 ())

let assert_clean name (s, _) =
  check Alcotest.bool "events were checked" true (Trace.Sanitizer.events_seen s > 0);
  if not (Trace.Sanitizer.ok s) then
    Alcotest.failf "%s: %s" name (Trace.Sanitizer.report_string s)

let clean_case name kind =
  ( name ^ " sanitizes clean",
    `Quick,
    fun () -> assert_clean name (sanitized_run kind pipe) )

let test_arachne_sanitizes_clean () =
  (* a core arbiter is neither work-conserving nor starvation-free for
     parked activations (the arbiter grants only the requested cores), so
     those two invariant classes are off; everything else must hold on its
     natural workload *)
  let config =
    { Trace.Sanitizer.default_config with
      Trace.Sanitizer.disabled = [ Trace.Sanitizer.Work_conservation; Starvation ]
    }
  in
  let memcached b =
    ignore
      (Workloads.Memcached.run b
         (Workloads.Memcached.default_params ~mode:Workloads.Memcached.Arachne_enoki
            ~load_kreqs:100. ()))
  in
  assert_clean "arachne"
    (sanitized_run ~config (Workloads.Setup.Enoki_sched (module Schedulers.Arachne)) memcached)

(* ---------- broken schedulers: each invariant class must fire ----------

   One delegating scheduler wrapping FIFO, with the sabotage selected by a
   global before the machine is built (schedulers are constructed at
   factory time, so the ref is read per-build). *)

type sabotage = Starve | Pin_cpu0 | Forge_token

let sabotage_mode = ref Starve

module Broken_sched = struct
  module F = Schedulers.Fifo_sched

  type t = { inner : F.t; mode : sabotage; mutable stash : Sched.t (* or none *) }

  let name = "broken"

  let create ctx = { inner = F.create ctx; mode = !sabotage_mode; stash = Sched.none }

  let get_policy t = F.get_policy t.inner

  let pick_next_task t ~cpu ~curr ~curr_runtime =
    match t.mode with
    | Starve -> Sched.none (* never dispatch anything: starves every runnable task *)
    | Pin_cpu0 ->
      if cpu = 0 then F.pick_next_task t.inner ~cpu ~curr ~curr_runtime else Sched.none
    | Forge_token ->
      let tok = F.pick_next_task t.inner ~cpu ~curr ~curr_runtime in
      if Sched.is_none t.stash && Sched.cpu tok = cpu then begin
        t.stash <- tok;
        (* forge a token claiming another core: Enoki-C must reject it *)
        Sched.Private.create ~pid:(Sched.pid tok) ~cpu:(cpu + 1) ~gen:(Sched.generation tok)
      end
      else tok

  let pnt_err t ~cpu ~pid ~err ~sched =
    ignore (err, sched);
    let tok = t.stash in
    if not (Sched.is_none tok) then begin
      t.stash <- Sched.none;
      F.pnt_err t.inner ~cpu ~pid ~err:"recovered" ~sched:tok
    end

  let select_task_rq t ~pid ~waker_cpu ~allowed =
    match t.mode with
    | Pin_cpu0 -> 0 (* wedge every task onto one run-queue *)
    | Starve | Forge_token -> F.select_task_rq t.inner ~pid ~waker_cpu ~allowed

  let balance t ~cpu =
    match t.mode with Pin_cpu0 | Starve -> -1 | Forge_token -> F.balance t.inner ~cpu

  let task_dead t = F.task_dead t.inner

  let task_blocked t = F.task_blocked t.inner

  let task_wakeup t = F.task_wakeup t.inner

  let task_new t = F.task_new t.inner

  let task_preempt t = F.task_preempt t.inner

  let task_yield t = F.task_yield t.inner

  let task_departed t = F.task_departed t.inner

  let task_affinity_changed t = F.task_affinity_changed t.inner

  let task_prio_changed t = F.task_prio_changed t.inner

  let task_tick t = F.task_tick t.inner

  let migrate_task_rq t = F.migrate_task_rq t.inner

  let balance_err t = F.balance_err t.inner

  let reregister_prepare _ = None

  let reregister_init ctx _ = create ctx

  let parse_hint t = F.parse_hint t.inner
end

let hog ~chunk ~steps =
  let left = ref steps in
  fun (_ : T.ctx) ->
    if !left = 0 then T.exit
    else begin
      decr left;
      T.compute chunk
    end

let broken_run mode ~hogs ~for_ =
  sabotage_mode := mode;
  let nr_cpus = Kernsim.Topology.nr_cpus one_socket in
  let tracer = Trace.Tracer.create ~nr_cpus () in
  let s = Trace.Sanitizer.create ~nr_cpus () in
  Trace.Sanitizer.attach s tracer;
  let b =
    Workloads.Setup.build ~tracer ~topology:one_socket
      (Workloads.Setup.Enoki_sched (module Broken_sched))
  in
  List.iter
    (fun i ->
      ignore
        (M.spawn b.machine
           { (T.default_spec ~name:(Printf.sprintf "h%d" i)
                (hog ~chunk:(Kernsim.Time.ms 1) ~steps:2_000))
             with
             T.policy = b.policy }))
    (List.init hogs Fun.id);
  M.run_for b.machine for_;
  s

let test_sanitizer_catches_starvation () =
  let s = broken_run Starve ~hogs:2 ~for_:(Kernsim.Time.ms 300) in
  let vs = violations_of_kind s Trace.Sanitizer.Starvation in
  check Alcotest.bool "starvation reported" true (vs <> []);
  check Alcotest.bool "violations carry trailing context" true
    (List.for_all (fun (v : Trace.Sanitizer.violation) -> v.window <> []) vs)

let test_sanitizer_catches_work_conservation () =
  let s = broken_run Pin_cpu0 ~hogs:4 ~for_:(Kernsim.Time.ms 100) in
  check Alcotest.bool "work conservation violated" true
    (violations_of_kind s Trace.Sanitizer.Work_conservation <> [])

let test_sanitizer_catches_token_discipline () =
  let s = broken_run Forge_token ~hogs:2 ~for_:(Kernsim.Time.ms 50) in
  let vs = violations_of_kind s Trace.Sanitizer.Token_discipline in
  check Alcotest.bool "forged token surfaced as pnt_err violation" true (vs <> [])

(* double-run and lock imbalance cannot be produced through the machine
   (it validates picks and the Lock module brackets every critical
   section), so the checks are proven on synthetic event feeds *)

let test_sanitizer_catches_double_run () =
  let s = Trace.Sanitizer.create ~nr_cpus:4 () in
  Trace.Sanitizer.Private.feed s (ev 10 0 (Trace.Event.Dispatch { pid = 3 }));
  Trace.Sanitizer.Private.feed s (ev 20 1 (Trace.Event.Dispatch { pid = 3 }));
  check Alcotest.int "double run detected" 1
    (List.length (violations_of_kind s Trace.Sanitizer.Double_run));
  (* same pid redispatched on the same cpu is not a double-run *)
  let s2 = Trace.Sanitizer.create ~nr_cpus:4 () in
  Trace.Sanitizer.Private.feed s2 (ev 10 0 (Trace.Event.Dispatch { pid = 3 }));
  Trace.Sanitizer.Private.feed s2 (ev 20 0 (Trace.Event.Dispatch { pid = 3 }));
  check Alcotest.bool "same-cpu redispatch ok" true (Trace.Sanitizer.ok s2)

(* A double run leaves the pid in two cpus' slots; whatever stops it (a
   block, an idle on either cpu) must clear both, whether or not the
   double run is reported.  Without one, stopping a pid leaves the other
   cpus alone. *)
let test_sanitizer_double_run_clears_every_cpu () =
  let current s = List.init 4 (fun cpu -> Trace.Sanitizer.Private.current s ~cpu) in
  let double_run ?config () =
    let s = Trace.Sanitizer.create ?config ~nr_cpus:4 () in
    List.iter (Trace.Sanitizer.Private.feed s)
      [
        ev 10 0 (Trace.Event.Dispatch { pid = 3 });
        ev 15 2 (Trace.Event.Dispatch { pid = 5 });
        ev 20 1 (Trace.Event.Dispatch { pid = 3 });
      ];
    check Alcotest.(list int) "pid 3 on cpus 0 and 1" [ 3; 3; 5; -1 ] (current s);
    s
  in
  let stopped s =
    check Alcotest.(list int) "every slot naming pid 3 cleared" [ -1; -1; 5; -1 ] (current s)
  in
  let s = double_run () in
  Trace.Sanitizer.Private.feed s (ev 30 1 (Trace.Event.Block { pid = 3 }));
  stopped s;
  let s = double_run () in
  Trace.Sanitizer.Private.feed s (ev 30 1 Trace.Event.Idle);
  stopped s;
  let s = double_run () in
  Trace.Sanitizer.Private.feed s (ev 30 0 Trace.Event.Idle);
  stopped s;
  let config =
    { Trace.Sanitizer.default_config with Trace.Sanitizer.disabled = [ Trace.Sanitizer.Double_run ] }
  in
  let s = double_run ~config () in
  Trace.Sanitizer.Private.feed s (ev 30 0 (Trace.Event.Block { pid = 3 }));
  check Alcotest.bool "double run not reported" true (Trace.Sanitizer.ok s);
  stopped s;
  let s = Trace.Sanitizer.create ~nr_cpus:4 () in
  List.iter (Trace.Sanitizer.Private.feed s)
    [
      ev 10 0 (Trace.Event.Dispatch { pid = 3 });
      ev 15 1 (Trace.Event.Dispatch { pid = 5 });
      ev 20 0 (Trace.Event.Dispatch { pid = 7 });
      ev 30 0 (Trace.Event.Block { pid = 3 });
      ev 40 1 (Trace.Event.Block { pid = 5 });
    ];
  check Alcotest.(list int) "no double run: only the pid's own cpu" [ 7; -1; -1; -1 ] (current s)

(* A sanitizer narrower than its tracer would see events on cpus it keeps
   no state for: attaching it is refused at once.  A wider one is fine. *)
let test_sanitizer_attach_checks_width () =
  let tracer = Trace.Tracer.create ~capacity:16 ~nr_cpus:4 () in
  (match Trace.Sanitizer.attach (Trace.Sanitizer.create ~nr_cpus:2 ()) tracer with
  | () -> Alcotest.fail "a 2-cpu sanitizer attached to a 4-cpu tracer"
  | exception Invalid_argument msg ->
    check Alcotest.bool ("one-line Sanitizer.attach error: " ^ msg) true
      (String.starts_with ~prefix:"Sanitizer.attach: " msg && not (String.contains msg '\n')));
  let s = Trace.Sanitizer.create ~nr_cpus:8 () in
  Trace.Sanitizer.attach s tracer;
  Trace.Tracer.emit_dispatch tracer ~ts:10 ~cpu:3 ~pid:1;
  Trace.Tracer.emit_idle tracer ~ts:20 ~cpu:3;
  check Alcotest.int "a wider sanitizer checks every event" 2 (Trace.Sanitizer.events_seen s);
  check Alcotest.bool "and finds nothing wrong" true (Trace.Sanitizer.ok s)

let test_sanitizer_catches_lock_imbalance () =
  let s = Trace.Sanitizer.create ~nr_cpus:2 () in
  Trace.Sanitizer.Private.feed s (ev 10 0 (Trace.Event.Lock_acquire { lock_id = 1 }));
  Trace.Sanitizer.Private.feed s (ev 20 0 (Trace.Event.Lock_release { lock_id = 2 }));
  Trace.Sanitizer.Private.feed s (ev 30 1 (Trace.Event.Lock_release { lock_id = 1 }));
  check Alcotest.int "out-of-order and never-acquired releases flagged" 2
    (List.length (violations_of_kind s Trace.Sanitizer.Lock_imbalance));
  (* balanced LIFO nesting is clean *)
  let s2 = Trace.Sanitizer.create ~nr_cpus:2 () in
  List.iter (Trace.Sanitizer.Private.feed s2)
    [
      ev 1 0 (Trace.Event.Lock_acquire { lock_id = 1 });
      ev 2 0 (Trace.Event.Lock_acquire { lock_id = 2 });
      ev 3 0 (Trace.Event.Lock_release { lock_id = 2 });
      ev 4 0 (Trace.Event.Lock_release { lock_id = 1 });
    ];
  check Alcotest.bool "balanced nesting clean" true (Trace.Sanitizer.ok s2)

let test_disabled_silences_only_that_kind () =
  let config =
    { Trace.Sanitizer.default_config with
      Trace.Sanitizer.disabled = [ Trace.Sanitizer.Double_run ]
    }
  in
  let s = Trace.Sanitizer.create ~config ~nr_cpus:4 () in
  Trace.Sanitizer.Private.feed s (ev 10 0 (Trace.Event.Dispatch { pid = 3 }));
  Trace.Sanitizer.Private.feed s (ev 20 1 (Trace.Event.Dispatch { pid = 3 }));
  Trace.Sanitizer.Private.feed s (ev 30 0 (Trace.Event.Lock_release { lock_id = 9 }));
  check Alcotest.bool "disabled kind silenced" true
    (violations_of_kind s Trace.Sanitizer.Double_run = []);
  check Alcotest.bool "other kinds still fire" true
    (violations_of_kind s Trace.Sanitizer.Lock_imbalance <> [])

(* the watchdog polls [count_of_kind] on every tick; it must agree with
   the violation list *)
let check_counts s =
  List.iter
    (fun k ->
      check Alcotest.int (Trace.Sanitizer.Private.kind_name k)
        (List.length (violations_of_kind s k))
        (Trace.Sanitizer.count_of_kind s k))
    Trace.Sanitizer.[ Double_run; Starvation; Work_conservation; Token_discipline; Lock_imbalance ]

let test_counts_match_violations () =
  let s = broken_run Starve ~hogs:2 ~for_:(Kernsim.Time.ms 300) in
  check Alcotest.bool "starvation counted" true
    (Trace.Sanitizer.count_of_kind s Trace.Sanitizer.Starvation > 0);
  check_counts s;
  let s = Trace.Sanitizer.create ~nr_cpus:2 () in
  List.iter (Trace.Sanitizer.Private.feed s)
    [
      ev 10 0 (Trace.Event.Lock_acquire { lock_id = 1 });
      ev 20 0 (Trace.Event.Lock_release { lock_id = 2 });
      ev 30 1 (Trace.Event.Lock_release { lock_id = 1 });
    ];
  check Alcotest.int "lock imbalance counted" 2
    (Trace.Sanitizer.count_of_kind s Trace.Sanitizer.Lock_imbalance);
  check_counts s

(* ---------- packed = boxed ----------

   Every kind, through the boxed door ([Tracer.emit]) and through the packed
   emitters, must drain to the same events and give the sanitizer the same
   report, trailing windows included; feeding the boxed events straight to
   [Sanitizer.Private.feed] must too.  Message names come from the crossing table
   (packed) and from arbitrary strings (boxed), and likewise dispatch-queue
   names (interned or not); lock ids straddle the shared-value range. *)

let dsq_names = List.map (fun name -> ignore (E.dsq_index name); name) [ "local_0"; "global" ]

let gen_packed_events =
  let open QCheck.Gen in
  let dsq = oneofl dsq_names and pid = int_range 0 5 in
  let kind =
    frequency
      [
        (4, gen_kind);
        (1, map (fun name -> E.Msg_call { name }) (oneofl (Array.to_list E.call_names)));
        (1, map2 (fun dsq pid -> E.Dsq_insert { dsq; pid }) dsq pid);
        (1, map3 (fun dsq pid wait -> E.Dsq_consume { dsq; pid; wait }) dsq pid (int_range 0 99));
      ]
  in
  list_size (int_range 0 60)
    (map3 (fun ts cpu kind -> { E.ts; cpu; kind }) (int_range 0 2_000) (int_range 0 3) kind)

let emit_packed tr ~ts ~cpu (kind : E.kind) =
  let module Tr = Trace.Tracer in
  let pid = function Some p -> p | None -> -1 in
  match kind with
  | E.Sched_switch { prev; next } -> Tr.emit_switch tr ~ts ~cpu ~prev:(pid prev) ~next:(pid next)
  | E.Wakeup { pid; waker_cpu; affinity = None } -> Tr.emit_wakeup tr ~ts ~cpu ~pid ~waker_cpu
  | E.Dispatch { pid } -> Tr.emit_dispatch tr ~ts ~cpu ~pid
  | E.Preempt { pid } -> Tr.emit_preempt tr ~ts ~cpu ~pid
  | E.Yield { pid } -> Tr.emit_yield tr ~ts ~cpu ~pid
  | E.Block { pid } -> Tr.emit_block tr ~ts ~cpu ~pid
  | E.Exit { pid } -> Tr.emit_exit tr ~ts ~cpu ~pid
  | E.Migrate { pid; from_cpu; to_cpu } -> Tr.emit_migrate tr ~ts ~cpu ~pid ~from_cpu ~to_cpu
  | E.Tick -> Tr.emit_tick tr ~ts ~cpu
  | E.Idle -> Tr.emit_idle tr ~ts ~cpu
  | E.Lock_acquire { lock_id } -> Tr.emit_lock_acquire tr ~ts ~cpu ~lock_id
  | E.Lock_release { lock_id } -> Tr.emit_lock_release tr ~ts ~cpu ~lock_id
  | E.Msg_call { name } when E.Private.call_index name >= 0 ->
    Tr.emit_msg_call tr ~ts ~cpu ~call:(E.Private.call_index name)
  | E.Dsq_insert { dsq; pid } when List.mem dsq dsq_names ->
    Tr.emit_tag tr ~ts ~cpu E.T_dsq_insert (E.dsq_index dsq) pid 0
  | E.Dsq_consume { dsq; pid; wait } when List.mem dsq dsq_names ->
    Tr.emit_tag tr ~ts ~cpu E.T_dsq_consume (E.dsq_index dsq) pid wait
  | kind -> Tr.emit tr ~ts ~cpu kind

(* tight bounds and a short window, so short random streams trip every
   invariant class *)
let packed_config =
  { Trace.Sanitizer.starvation_bound = 300; wc_grace = 100; window = 5; disabled = [] }

let prop_packed_matches_boxed evs =
  let run emit =
    let tr = Trace.Tracer.create ~capacity:64 ~nr_cpus:4 () in
    let s = Trace.Sanitizer.create ~config:packed_config ~nr_cpus:4 () in
    Trace.Sanitizer.attach s tr;
    List.iter (fun (e : E.t) -> emit tr ~ts:e.ts ~cpu:e.cpu e.kind) evs;
    (Trace.Tracer.events tr, s)
  in
  let boxed_events, boxed = run Trace.Tracer.emit in
  let packed_events, packed = run emit_packed in
  let fed = Trace.Sanitizer.create ~config:packed_config ~nr_cpus:4 () in
  List.iter (Trace.Sanitizer.Private.feed fed) evs;
  if packed_events <> boxed_events then
    QCheck.Test.fail_reportf "drains differ:\n%s\nboxed:\n%s" (print_events packed_events)
      (print_events boxed_events);
  if List.sort compare boxed_events <> List.sort compare evs then
    QCheck.Test.fail_reportf "drain is not the emitted events:\n%s" (print_events boxed_events);
  List.iter
    (fun (what, s) ->
      if Trace.Sanitizer.violations s <> Trace.Sanitizer.violations boxed then
        QCheck.Test.fail_reportf "%s report differs:\n%s\nboxed:\n%s" what
          (Trace.Sanitizer.report_string s) (Trace.Sanitizer.report_string boxed))
    [ ("packed", packed); ("fed", fed) ];
  (* each window is the run of events leading up to its violation *)
  let rec is_run w l =
    let rec prefix w l =
      match (w, l) with [], _ -> true | x :: w, y :: l -> x = y && prefix w l | _ :: _, [] -> false
    in
    prefix w l || match l with [] -> false | _ :: l -> is_run w l
  in
  List.iter
    (fun (v : Trace.Sanitizer.violation) ->
      if not (is_run v.window evs) then
        QCheck.Test.fail_reportf "window is not a run of the fed events:\n%s"
          (print_events v.window))
    (Trace.Sanitizer.violations fed);
  true

(* ---------- lock events through the real tap ---------- *)

let test_lock_events_traced_and_balanced () =
  let (s, b) =
    sanitized_run (Workloads.Setup.Enoki_sched (module Schedulers.Fifo_sched)) pipe
  in
  ignore b;
  assert_clean "fifo lock pairing" (s, b);
  check Alcotest.bool "lock events observed" true (Trace.Sanitizer.events_seen s > 0)

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let () =
  Alcotest.run "trace"
    [
      ( "tracer",
        [
          ("counts, drops, subscribers", `Quick, test_tracer_counts_and_drops);
          ("out-of-range cpu folded", `Quick, test_tracer_folds_out_of_range_cpu);
          ("cold kinds in wrapped slots", `Quick, test_tracer_cold_kinds_wrap);
          ("oversized capacity rejected", `Quick, test_tracer_rejects_oversized_capacity);
          ("tag index round trip", `Quick, test_tag_index_roundtrip);
          ("wide fields stored whole", `Quick, test_slots_wide_fields);
          qtest ~count:300 "drain = per-cpu concat, stable-sorted"
            (QCheck.make ~print:print_drain_case gen_drain_case)
            prop_drain_matches_sorted_concat;
        ] );
      ( "spans",
        [
          ("synthetic stream", `Quick, test_spans_from_synthetic_stream);
          ("migration span covers chained hops", `Quick, test_spans_migration);
          ( "ingress wait keyed by request, fleet ops interleaved",
            `Quick,
            test_spans_ingress_wait_interleaved );
        ] );
      ( "export",
        [
          ("chrome JSON is valid and multi-cpu", `Quick, test_chrome_export_is_valid_json);
          ("ftrace text format", `Quick, test_ftrace_export_format);
          ("format parsing", `Quick, test_format_of_string_roundtrip);
          ("event names follow the constructors", `Quick, test_event_names);
          qtest ~count:600 "writers = the Printf renderer, byte for byte"
            (QCheck.make ~print:print_events
               (QCheck.Gen.frequency [ (1, gen_export_events); (1, gen_split_events) ]))
            prop_writers_match_printf;
        ] );
      ( "sanitizer-clean",
        [
          clean_case "cfs" Workloads.Setup.Cfs;
          clean_case "fifo" (Workloads.Setup.Enoki_sched (module Schedulers.Fifo_sched));
          clean_case "wfq" (Workloads.Setup.Enoki_sched (module Schedulers.Wfq));
          clean_case "shinjuku" (Workloads.Setup.Enoki_sched (module Schedulers.Shinjuku));
          clean_case "locality" (Workloads.Setup.Enoki_sched (module Schedulers.Locality));
          clean_case "edf" (Workloads.Setup.Enoki_sched (module Schedulers.Edf));
          clean_case "nest" (Workloads.Setup.Enoki_sched (module Schedulers.Nest));
          clean_case "rt-fifo" (Workloads.Setup.Enoki_sched (module Schedulers.Rt_fifo));
          clean_case "ghost-sol" (Workloads.Setup.Ghost Schedulers.Ghost_sim.Sol);
          clean_case "ghost-fifo" (Workloads.Setup.Ghost Schedulers.Ghost_sim.Fifo_per_cpu);
          clean_case "ghost-shinjuku" (Workloads.Setup.Ghost Schedulers.Ghost_sim.Gshinjuku);
          ("arachne (arbiter invariants)", `Quick, test_arachne_sanitizes_clean);
        ] );
      ( "sanitizer-fires",
        [
          ("starvation", `Quick, test_sanitizer_catches_starvation);
          ("work conservation", `Quick, test_sanitizer_catches_work_conservation);
          ("token discipline", `Quick, test_sanitizer_catches_token_discipline);
          ("double run (synthetic)", `Quick, test_sanitizer_catches_double_run);
          ("double run: stopping clears every cpu", `Quick, test_sanitizer_double_run_clears_every_cpu);
          ("attach refuses a wider tracer", `Quick, test_sanitizer_attach_checks_width);
          ("lock imbalance (synthetic)", `Quick, test_sanitizer_catches_lock_imbalance);
          ("disabled kinds silenced", `Quick, test_disabled_silences_only_that_kind);
          ("counts match the violation list", `Quick, test_counts_match_violations);
        ] );
      ( "packed",
        [
          qtest ~count:500 "packed emitters = boxed emit: drain and sanitizer report"
            (QCheck.make ~print:print_events gen_packed_events)
            prop_packed_matches_boxed;
        ] );
      ( "lock-tap",
        [ ("lock events traced and balanced", `Quick, test_lock_events_traced_and_balanced) ] );
    ]
