type format = Chrome | Ftrace

let format_to_string = function Chrome -> "chrome" | Ftrace -> "ftrace"

let format_of_string = function
  | "chrome" -> Some Chrome
  | "ftrace" -> Some Ftrace
  | _ -> None

(* ---------- buffer writers ----------

   Every exporter writes straight into one [Buffer.t]: no per-event
   [Printf.sprintf], no intermediate strings.  The int writers reproduce
   [%d], [%Nd], [%0Nd] and [%-Ns] of [string_of_int] byte for byte. *)

(* Digits are produced from the non-positive side so [min_int] needs no
   special case. *)
let rec add_neg_digits buf n =
  if n <= -10 then add_neg_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let rec neg_width n = if n > -10 then 1 else 1 + neg_width (n / 10)

let int_width n = if n < 0 then 1 + neg_width n else neg_width (-n)

let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_neg_digits buf n
  end
  else add_neg_digits buf (-n)

let add_fill buf c k =
  for _ = 1 to k do
    Buffer.add_char buf c
  done

(* [%<width>d] *)
let add_int_right buf ~width n =
  add_fill buf ' ' (width - int_width n);
  add_int buf n

(* [%0<width>d]: the zeros go after the sign *)
let add_int_zero buf ~width n =
  if n < 0 then Buffer.add_char buf '-';
  add_fill buf '0' (width - int_width n);
  add_neg_digits buf (if n < 0 then n else -n)

(* [%-<width>s] of [string_of_int n] *)
let add_int_left buf ~width n =
  add_int buf n;
  add_fill buf ' ' (width - int_width n)

(* Chrome's trace-event timestamps are microseconds, printed as [%.3f] of
   [ns /. 1e3].  Integer division gives the same digits: for |ns| < 2^52
   the float quotient is within half an ulp (< 0.0005) of the exact
   decimal, so [%.3f] rounds back to it. *)
let add_us buf ns =
  if ns < 0 then Buffer.add_char buf '-';
  let q = ns / 1000 and r = abs (ns mod 1000) in
  add_neg_digits buf (if q < 0 then q else -q);
  Buffer.add_char buf '.';
  Buffer.add_char buf (Char.unsafe_chr (48 + (r / 100)));
  Buffer.add_char buf (Char.unsafe_chr (48 + (r / 10 mod 10)));
  Buffer.add_char buf (Char.unsafe_chr (48 + (r mod 10)))

(* ---------- Chrome trace-event JSON ---------- *)

let add_meta buf ~pid ~tid ~name ~value =
  Buffer.add_string buf "{\"name\":\"";
  Buffer.add_string buf name;
  Buffer.add_string buf "\",\"ph\":\"M\",\"pid\":";
  add_int buf pid;
  Buffer.add_string buf ",\"tid\":";
  add_int buf tid;
  Buffer.add_string buf ",\"args\":{\"name\":\"";
  Metrics.Json.add_escaped buf value;
  Buffer.add_string buf "\"}}"

(* [Event.iter_args] callbacks: one ["key":"value"] member each *)
let json_key buf i key =
  if i > 0 then Buffer.add_char buf ',';
  Buffer.add_char buf '"';
  Metrics.Json.add_escaped buf key;
  Buffer.add_string buf "\":\""

let json_int_arg buf i key v =
  json_key buf i key;
  add_int buf v;
  Buffer.add_char buf '"'

let json_str_arg buf i key s =
  json_key buf i key;
  Metrics.Json.add_escaped buf s;
  Buffer.add_char buf '"'

let add_instant buf (ev : Event.t) =
  Buffer.add_string buf "{\"name\":\"";
  Buffer.add_string buf (Event.name ev.kind);
  Buffer.add_string buf "\",\"cat\":\"sched\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
  add_us buf ev.ts;
  Buffer.add_string buf ",\"pid\":0,\"tid\":";
  add_int buf ev.cpu;
  Buffer.add_string buf ",\"args\":{";
  Event.iter_args ev.kind ~int:json_int_arg ~str:json_str_arg buf;
  Buffer.add_string buf "}}"

(* A complete ("X") event named "pid <pid>", up to and including the
   opening of its args object and the ["pid":"<pid>"] member. *)
let add_complete_head buf ~cat ~pid ~tid ~task ~start_ns ~stop_ns =
  Buffer.add_string buf "{\"name\":\"pid ";
  add_int buf task;
  Buffer.add_string buf "\",\"cat\":\"";
  Buffer.add_string buf cat;
  Buffer.add_string buf "\",\"ph\":\"X\",\"ts\":";
  add_us buf start_ns;
  Buffer.add_string buf ",\"dur\":";
  add_us buf (max 0 (stop_ns - start_ns));
  Buffer.add_string buf ",\"pid\":";
  add_int buf pid;
  Buffer.add_string buf ",\"tid\":";
  add_int buf tid;
  Buffer.add_string buf ",\"args\":{\"pid\":\"";
  add_int buf task;
  Buffer.add_char buf '"'

(* Per-cpu running slices, reconstructed from dispatch/deschedule events so
   the trace shows task occupancy bars, not just instants.  Written in the
   order they close; slices still open at the end close at the last
   timestamp seen, in cpu order.  [open_pid] holds -1 on a cpu with no
   open slice (simulator pids are never negative). *)
let add_run_slices buf ~sep ~nr_cpus ~last_ts events =
  let open_pid = Array.make nr_cpus (-1) and open_ts = Array.make nr_cpus 0 in
  let close cpu stop_ns =
    let pid = open_pid.(cpu) in
    if pid >= 0 then begin
      open_pid.(cpu) <- -1;
      sep ();
      add_complete_head buf ~cat:"run" ~pid:0 ~tid:cpu ~task:pid ~start_ns:open_ts.(cpu) ~stop_ns;
      Buffer.add_string buf "}}"
    end
  in
  List.iter
    (fun (ev : Event.t) ->
      match ev.kind with
      | Event.Dispatch { pid } ->
        close ev.cpu ev.ts;
        open_pid.(ev.cpu) <- pid;
        open_ts.(ev.cpu) <- ev.ts
      | Event.Preempt { pid } | Event.Yield { pid } | Event.Block { pid } | Event.Exit { pid } ->
        if open_pid.(ev.cpu) = pid then close ev.cpu ev.ts
      | Event.Idle | Event.Sched_switch { next = None; _ } -> close ev.cpu ev.ts
      | Event.Sched_switch _ | Event.Wakeup _ | Event.Migrate _ | Event.Tick | Event.Pnt_err _
      | Event.Lock_acquire _ | Event.Lock_release _ | Event.Msg_call _ | Event.Panic _
      | Event.Failover _ | Event.Overrun _ | Event.Watchdog_fire _ | Event.Metric_flush _
      | Event.Dsq_insert _ | Event.Dsq_consume _ | Event.Fleet_op _ | Event.Req_enqueue _
      | Event.Req_take _ | Event.Req_done _ -> ())
    events;
  for cpu = 0 to nr_cpus - 1 do
    close cpu last_ts
  done

(* Bytes reserved per event, so a large trace's buffer is allocated once
   rather than grown through a chain of doublings.  A WFQ schbench trace
   averages ~110 B/event in Chrome JSON and ~65 B/event in ftrace text. *)
let chrome_bytes_per_event = 128

let ftrace_bytes_per_event = 80

let chrome_buffer ?(spans = true) events =
  let count = ref 0 and nr_cpus = ref 1 and last_ts = ref 0 in
  List.iter
    (fun (ev : Event.t) ->
      incr count;
      nr_cpus := max !nr_cpus (ev.cpu + 1);
      last_ts := max !last_ts ev.ts)
    events;
  let nr_cpus = !nr_cpus and last_ts = !last_ts in
  let buf = Buffer.create (min Sys.max_string_length (4096 + (!count * chrome_bytes_per_event))) in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_char buf ',' in
  let meta ~pid ~tid ~name ~value =
    sep ();
    add_meta buf ~pid ~tid ~name ~value
  in
  meta ~pid:0 ~tid:0 ~name:"process_name" ~value:"machine";
  for cpu = 0 to nr_cpus - 1 do
    meta ~pid:0 ~tid:cpu ~name:"thread_name" ~value:("cpu " ^ string_of_int cpu)
  done;
  add_run_slices buf ~sep ~nr_cpus ~last_ts events;
  List.iter
    (fun ev ->
      sep ();
      add_instant buf ev)
    events;
  if spans then begin
    let span_list = Spans.of_events events in
    if span_list <> [] then begin
      meta ~pid:1 ~tid:0 ~name:"process_name" ~value:"latency spans";
      meta ~pid:1 ~tid:0 ~name:"thread_name" ~value:"wakeup_to_dispatch";
      meta ~pid:1 ~tid:1 ~name:"thread_name" ~value:"preempt_to_resched";
      meta ~pid:1 ~tid:2 ~name:"thread_name" ~value:"migration";
      meta ~pid:1 ~tid:3 ~name:"thread_name" ~value:"ingress_wait";
      List.iter
        (fun (s : Spans.t) ->
          let tid =
            match s.kind with
            | Spans.Wakeup_to_dispatch -> 0
            | Spans.Preempt_to_resched -> 1
            | Spans.Migration -> 2
            | Spans.Ingress_wait -> 3
          in
          sep ();
          add_complete_head buf ~cat:"latency" ~pid:1 ~tid ~task:s.pid ~start_ns:s.start_ts
            ~stop_ns:s.stop_ts;
          Buffer.add_string buf ",\"cpu\":\"";
          add_int buf s.cpu;
          Buffer.add_string buf "\"}}")
        span_list
    end
  end;
  Buffer.add_string buf "]}";
  buf

let chrome_json ?spans events = Buffer.contents (chrome_buffer ?spans events)

(* ---------- ftrace-style text ---------- *)

let ftrace_int_arg buf _ key v =
  Buffer.add_char buf ' ';
  Buffer.add_string buf key;
  Buffer.add_char buf '=';
  add_int buf v

let ftrace_str_arg buf _ key s =
  Buffer.add_char buf ' ';
  Buffer.add_string buf key;
  Buffer.add_char buf '=';
  Buffer.add_string buf s

(* "          enoki-<pid, %-5s> [<cpu, %03d>] <secs, %6d>.<usecs, %06d>: <name>:<args>" *)
let add_ftrace_line buf (ev : Event.t) =
  Buffer.add_string buf "          enoki-";
  add_int_left buf ~width:5 (match Event.pid_of ev.kind with Some p -> p | None -> 0);
  Buffer.add_string buf " [";
  add_int_zero buf ~width:3 ev.cpu;
  Buffer.add_string buf "] ";
  add_int_right buf ~width:6 (ev.ts / 1_000_000_000);
  Buffer.add_char buf '.';
  add_int_zero buf ~width:6 (ev.ts mod 1_000_000_000 / 1_000);
  Buffer.add_string buf ": ";
  Buffer.add_string buf (Event.name ev.kind);
  Buffer.add_char buf ':';
  Event.iter_args ev.kind ~int:ftrace_int_arg ~str:ftrace_str_arg buf;
  Buffer.add_char buf '\n'

let ftrace_buffer events =
  let buf =
    Buffer.create
      (min Sys.max_string_length (4096 + (List.length events * ftrace_bytes_per_event)))
  in
  Buffer.add_string buf "# tracer: schedtrace\n";
  Buffer.add_string buf "#           TASK-PID    [CPU]  TIMESTAMP: EVENT: ARGS\n";
  List.iter (add_ftrace_line buf) events;
  buf

let ftrace events = Buffer.contents (ftrace_buffer events)

let render_buffer format events =
  match format with Chrome -> chrome_buffer events | Ftrace -> ftrace_buffer events

let render format events = Buffer.contents (render_buffer format events)

let save ~path format events =
  let buf = render_buffer format events in
  Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc buf)
