type format = Chrome | Ftrace

let format_to_string = function Chrome -> "chrome" | Ftrace -> "ftrace"

let format_of_string = function
  | "chrome" -> Some Chrome
  | "ftrace" -> Some Ftrace
  | _ -> None

(* ---------- the document writer ----------

   Every exporter writes its document twice with the same code: a sizing
   pass that only adds up constant lengths and int widths, then a filling
   pass into one [Bytes] of exactly that size, handed out as the string
   without a copy.  Nothing is over-reserved and nothing is copied out.
   The int writers reproduce [%d], [%Nd], [%0Nd] and [%-Ns] of
   [string_of_int] byte for byte. *)

type doc = {
  bytes : Bytes.t;
  mutable pos : int;
  fill : bool;
  mutable args : int; (* members written into the open instant's args *)
}

let document write =
  let sizing = { bytes = Bytes.empty; pos = 0; fill = false; args = 0 } in
  write sizing;
  let d = { bytes = Bytes.create sizing.pos; pos = 0; fill = true; args = 0 } in
  write d;
  if d.pos <> sizing.pos then invalid_arg "Export.document: the two passes wrote different sizes";
  Bytes.unsafe_to_string d.bytes

external get64u : string -> int -> int64 = "%caml_string_get64u"
external get32u : string -> int -> int32 = "%caml_string_get32u"
external get16u : string -> int -> int = "%caml_string_get16u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external set32u : bytes -> int -> int32 -> unit = "%caml_bytes_set32u"
external set16u : bytes -> int -> int -> unit = "%caml_bytes_set16u"

(* The filling pass checks each write's bounds once, then stores
   unchecked; a pass that writes more than the sizing pass counted stops
   here. *)
let[@inline] reserve d n =
  if d.pos + n > Bytes.length d.bytes then invalid_arg "Export.document: the passes disagree"

(* [n] bytes of [s] into [b] at [pos], a word at a time, the last word
   overlapping the one before: the constants written per event are short *)
let copy s b pos n =
  if n > 64 then Bytes.unsafe_blit_string s 0 b pos n
  else if n >= 8 then begin
    let i = ref 0 in
    while !i < n - 8 do
      set64u b (pos + !i) (get64u s !i);
      i := !i + 8
    done;
    set64u b (pos + n - 8) (get64u s (n - 8))
  end
  else if n >= 4 then begin
    set32u b pos (get32u s 0);
    set32u b (pos + n - 4) (get32u s (n - 4))
  end
  else if n >= 2 then begin
    set16u b pos (get16u s 0);
    set16u b (pos + n - 2) (get16u s (n - 2))
  end
  else if n = 1 then Bytes.unsafe_set b pos (String.unsafe_get s 0)

let[@inline] add_string d s =
  let n = String.length s in
  if d.fill then begin
    reserve d n;
    copy s d.bytes d.pos n
  end;
  d.pos <- d.pos + n

let[@inline] add_char d c =
  if d.fill then begin
    reserve d 1;
    Bytes.unsafe_set d.bytes d.pos c
  end;
  d.pos <- d.pos + 1

let add_fill d c k =
  if k > 0 then begin
    if d.fill then Bytes.fill d.bytes d.pos k c;
    d.pos <- d.pos + k
  end

let add_escaped d s = add_string d (Metrics.Json.escape s)

let rec width n =
  if n < 10 then 1
  else if n < 100 then 2
  else if n < 1000 then 3
  else if n < 10000 then 4
  else if n < 100000 then 5
  else if n < 1000000 then 6
  else 6 + width (n / 1000000)

(* "00" "01" ... "99" *)
let digit_pairs =
  String.init 200 (fun i -> Char.chr (48 + if i land 1 = 0 then i / 20 else i / 2 mod 10))

(* the digits of [n >= 0], the last one at [i], two per division *)
let put_digits b i n =
  let n = ref n and i = ref i in
  while !n >= 100 do
    let q = !n / 100 in
    set16u b (!i - 1) (get16u digit_pairs (2 * (!n - (q * 100))));
    n := q;
    i := !i - 2
  done;
  if !n >= 10 then set16u b (!i - 1) (get16u digit_pairs (2 * !n))
  else Bytes.unsafe_set b !i (Char.unsafe_chr (48 + !n))

(* the digits of [n >= 0] *)
let[@inline] add_digits d n =
  let w = width n in
  if d.fill then begin
    reserve d w;
    put_digits d.bytes (d.pos + w - 1) n
  end;
  d.pos <- d.pos + w

let add_int d n =
  if n >= 0 then add_digits d n
  else if n = min_int then add_string d (string_of_int n)
  else begin
    add_char d '-';
    add_digits d (-n)
  end

let int_width n = if n >= 0 then width n else String.length (string_of_int n)

(* [%<width>d] *)
let add_int_right d ~width n =
  add_fill d ' ' (width - int_width n);
  add_int d n

(* [%0<width>d]: the zeros go after the sign *)
let add_int_zero d ~width n =
  if n < 0 then begin
    let s = string_of_int n in
    add_char d '-';
    add_fill d '0' (width - String.length s);
    add_string d (String.sub s 1 (String.length s - 1))
  end
  else begin
    add_fill d '0' (width - int_width n);
    add_digits d n
  end

(* [%-<width>s] of [string_of_int n] *)
let add_int_left d ~width n =
  add_int d n;
  add_fill d ' ' (width - int_width n)

(* Chrome's trace-event timestamps are microseconds, printed as [%.3f] of
   [ns /. 1e3].  Integer division gives the same digits: for |ns| < 2^52
   the float quotient is within half an ulp (< 0.0005) of the exact
   decimal, so [%.3f] rounds back to it. *)
let add_us d ns =
  if ns < 0 then add_char d '-';
  add_digits d (abs (ns / 1000));
  let r = abs (ns mod 1000) in
  if d.fill then begin
    reserve d 4;
    let b = d.bytes and i = d.pos in
    Bytes.unsafe_set b i '.';
    Bytes.unsafe_set b (i + 1) (Char.unsafe_chr (48 + (r / 100)));
    set16u b (i + 2) (get16u digit_pairs (2 * (r mod 100)))
  end;
  d.pos <- d.pos + 4

(* ---------- Chrome trace-event JSON ---------- *)

let add_meta d ~pid ~tid ~name ~value =
  add_string d "{\"name\":\"";
  add_string d name;
  add_string d "\",\"ph\":\"M\",\"pid\":";
  add_int d pid;
  add_string d ",\"tid\":";
  add_int d tid;
  add_string d ",\"args\":{\"name\":\"";
  add_escaped d value;
  add_string d "\"}}"

(* Each key's member opening, prepared once: the first member also opens
   the args object, a later one closes the value before it. *)
let json_first_keys = Array.map (fun k -> ",\"args\":{\"" ^ k ^ "\":\"") Event.arg_keys

let json_next_keys = Array.map (fun k -> "\",\"" ^ k ^ "\":\"") Event.arg_keys

(* [Event.iter_args] callbacks: one ["key":"value"] member each, the value's
   closing quote left to what follows *)
let json_key d i k =
  d.args <- i + 1;
  add_string d (Array.unsafe_get (if i = 0 then json_first_keys else json_next_keys) k)

let json_int_arg d i k v =
  json_key d i k;
  add_int d v

let json_str_arg d i k s =
  json_key d i k;
  add_escaped d s

(* Per kind, an instant's text up to its timestamp, separator included. *)
let instant_heads =
  Array.map
    (fun name -> ",{\"name\":\"" ^ name ^ "\",\"cat\":\"sched\",\"ph\":\"i\",\"s\":\"t\",\"ts\":")
    Event.names

let add_instant d (ev : Event.t) =
  add_string d (Array.unsafe_get instant_heads (Event.index ev.kind));
  add_us d ev.ts;
  add_string d ",\"pid\":0,\"tid\":";
  add_int d ev.cpu;
  d.args <- 0;
  Event.iter_args ev.kind ~int:json_int_arg ~str:json_str_arg d;
  add_string d (if d.args = 0 then ",\"args\":{}}" else "\"}}")

(* A complete ("X") event named "pid <pid>", up to and including the
   opening of its args object and the ["pid":"<pid>"] member, separator
   included. *)
let add_complete_head d ~cat ~pid ~tid ~task ~start_ns ~stop_ns =
  add_string d ",{\"name\":\"pid ";
  add_int d task;
  add_string d "\",\"cat\":\"";
  add_string d cat;
  add_string d "\",\"ph\":\"X\",\"ts\":";
  add_us d start_ns;
  add_string d ",\"dur\":";
  add_us d (max 0 (stop_ns - start_ns));
  add_string d ",\"pid\":";
  add_int d pid;
  add_string d ",\"tid\":";
  add_int d tid;
  add_string d ",\"args\":{\"pid\":\"";
  add_int d task;
  add_char d '"'

(* Per-cpu running slices, reconstructed from dispatch/deschedule events so
   the trace shows task occupancy bars, not just instants.  Written in the
   order they close; slices still open at the end close at the last
   timestamp seen, in cpu order.  [open_pid] holds -1 on a cpu with no
   open slice (simulator pids are never negative). *)
let add_run_slices d ~nr_cpus ~last_ts events =
  let open_pid = Array.make nr_cpus (-1) and open_ts = Array.make nr_cpus 0 in
  let close cpu stop_ns =
    let pid = open_pid.(cpu) in
    if pid >= 0 then begin
      open_pid.(cpu) <- -1;
      add_complete_head d ~cat:"run" ~pid:0 ~tid:cpu ~task:pid ~start_ns:open_ts.(cpu) ~stop_ns;
      add_string d "}}"
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

let add_spans d span_list =
  let meta ~tid ~name ~value =
    add_char d ',';
    add_meta d ~pid:1 ~tid ~name ~value
  in
  meta ~tid:0 ~name:"process_name" ~value:"latency spans";
  meta ~tid:0 ~name:"thread_name" ~value:"wakeup_to_dispatch";
  meta ~tid:1 ~name:"thread_name" ~value:"preempt_to_resched";
  meta ~tid:2 ~name:"thread_name" ~value:"migration";
  meta ~tid:3 ~name:"thread_name" ~value:"ingress_wait";
  List.iter
    (fun (s : Spans.t) ->
      let tid =
        match s.kind with
        | Spans.Wakeup_to_dispatch -> 0
        | Spans.Preempt_to_resched -> 1
        | Spans.Migration -> 2
        | Spans.Ingress_wait -> 3
      in
      add_complete_head d ~cat:"latency" ~pid:1 ~tid ~task:s.pid ~start_ns:s.start_ts
        ~stop_ns:s.stop_ts;
      add_string d ",\"cpu\":\"";
      add_int d s.cpu;
      add_string d "\"}}")
    span_list

let chrome_json ?(spans = true) events =
  let nr_cpus = ref 1 and last_ts = ref 0 in
  List.iter
    (fun (ev : Event.t) ->
      nr_cpus := max !nr_cpus (ev.cpu + 1);
      last_ts := max !last_ts ev.ts)
    events;
  let nr_cpus = !nr_cpus and last_ts = !last_ts in
  let span_list = if spans then Spans.of_events events else [] in
  document (fun d ->
      add_string d "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
      add_meta d ~pid:0 ~tid:0 ~name:"process_name" ~value:"machine";
      for cpu = 0 to nr_cpus - 1 do
        add_char d ',';
        add_meta d ~pid:0 ~tid:cpu ~name:"thread_name" ~value:("cpu " ^ string_of_int cpu)
      done;
      add_run_slices d ~nr_cpus ~last_ts events;
      List.iter (add_instant d) events;
      if span_list <> [] then add_spans d span_list;
      add_string d "]}")

(* ---------- ftrace-style text ---------- *)

let ftrace_keys = Array.map (fun k -> " " ^ k ^ "=") Event.arg_keys

let ftrace_int_arg d _ k v =
  add_string d (Array.unsafe_get ftrace_keys k);
  add_int d v

let ftrace_str_arg d _ k s =
  add_string d (Array.unsafe_get ftrace_keys k);
  add_string d s

(* "          enoki-<pid, %-5s> [<cpu, %03d>] <secs, %6d>.<usecs, %06d>: <name>:<args>" *)
let add_ftrace_line d (ev : Event.t) =
  add_string d "          enoki-";
  add_int_left d ~width:5 (match Event.pid_of ev.kind with Some p -> p | None -> 0);
  add_string d " [";
  add_int_zero d ~width:3 ev.cpu;
  add_string d "] ";
  add_int_right d ~width:6 (ev.ts / 1_000_000_000);
  add_char d '.';
  add_int_zero d ~width:6 (ev.ts mod 1_000_000_000 / 1_000);
  add_string d ": ";
  add_string d (Event.name ev.kind);
  add_char d ':';
  Event.iter_args ev.kind ~int:ftrace_int_arg ~str:ftrace_str_arg d;
  add_char d '\n'

let ftrace events =
  document (fun d ->
      add_string d "# tracer: schedtrace\n";
      add_string d "#           TASK-PID    [CPU]  TIMESTAMP: EVENT: ARGS\n";
      List.iter (add_ftrace_line d) events)

let render format events =
  match format with Chrome -> chrome_json events | Ftrace -> ftrace events

let save ~path format events =
  let doc = render format events in
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc doc)
