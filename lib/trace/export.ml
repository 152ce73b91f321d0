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
  limit : int; (* the end of the stretch this cursor may write *)
  fill : bool;
  mutable args : int; (* members written into the open instant's args *)
}

let sizing () = { bytes = Bytes.empty; pos = 0; limit = 0; fill = false; args = 0 }

(* A filling cursor for the stretch [pos, stop) of [bytes], [write]
   through it, checked to end at [stop]. *)
let stretch bytes ~pos ~stop write =
  let d = { bytes; pos; limit = stop; fill = true; args = 0 } in
  write d;
  if d.pos <> stop then invalid_arg "Export.document: the two passes wrote different sizes"

(* [f] on a helper domain where the machine has a second core, and the
   function that joins it; on one core, [f] itself, run when joined. *)
let start f =
  if Domain.recommended_domain_count () > 1 then begin
    let helper = Domain.spawn f in
    fun () -> Domain.join helper
  end
  else f

(* The filling pass: one [Bytes] of the [size] a sizing pass added up,
   written by [parts], each filling its own stretches of it.  The first
   part runs on the caller, the others [start]ed beside it; every helper
   is joined before this returns or raises, and the first failure is
   raised. *)
let fill size parts =
  let bytes = Bytes.create size in
  let run = List.map (fun part () -> part bytes) parts in
  let joins = match run with [] -> [] | first :: rest -> first :: List.map start rest in
  let failure = ref None in
  List.iter
    (fun join ->
      try join ()
      with e -> if Option.is_none !failure then failure := Some (e, Printexc.get_raw_backtrace ()))
    joins;
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) !failure;
  Bytes.unsafe_to_string bytes

let document write =
  let s = sizing () in
  write s;
  let size = s.pos in
  fill size [ (fun bytes -> stretch bytes ~pos:0 ~stop:size write) ]

external get64u : string -> int -> int64 = "%caml_string_get64u"
external get32u : string -> int -> int32 = "%caml_string_get32u"
external get16u : string -> int -> int = "%caml_string_get16u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external set32u : bytes -> int -> int32 -> unit = "%caml_bytes_set32u"
external set16u : bytes -> int -> int -> unit = "%caml_bytes_set16u"

(* The filling pass checks each write's bounds once, then stores
   unchecked; a pass that writes more than the sizing pass counted for its
   stretch stops here. *)
let[@inline] reserve d n =
  if d.pos + n > d.limit then invalid_arg "Export.document: the passes disagree"

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
    if d.fill then begin
      reserve d k;
      Bytes.fill d.bytes d.pos k c
    end;
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

(* The timestamp text the last instant got: [len] bytes (0: none) for
   [ns].  An instant nearly always shares its timestamp with the one
   before it (97% of schbench80-observed's instants, 94% of the wfq pipe
   trace's), so it copies that text instead of printing the digits.  Run
   slices and spans almost never repeat a timestamp and print theirs. *)
type stamp = { mutable ns : int; mutable len : int; text : Bytes.t }

let stamp () = { ns = 0; len = 0; text = Bytes.create 24 }

let add_stamp d st ns =
  if st.len > 0 && ns = st.ns then begin
    let n = st.len in
    if d.fill then begin
      reserve d n;
      copy (Bytes.unsafe_to_string st.text) d.bytes d.pos n
    end;
    d.pos <- d.pos + n
  end
  else begin
    let start = d.pos in
    add_us d ns;
    let n = d.pos - start in
    if d.fill then Bytes.blit d.bytes start st.text 0 n;
    st.ns <- ns;
    st.len <- n
  end

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

let add_instant_generic d st (ev : Event.t) =
  add_string d (Array.unsafe_get instant_heads (Event.index ev.kind));
  add_stamp d st ev.ts;
  add_string d ",\"pid\":0,\"tid\":";
  add_int d ev.cpu;
  d.args <- 0;
  Event.iter_args ev.kind ~int:json_int_arg ~str:json_str_arg d;
  add_string d (if d.args = 0 then ",\"args\":{}}" else "\"}}")

let i_dispatch = Event.index (Dispatch { pid = 0 })
and i_tick = Event.index Tick
and i_idle = Event.index Idle
and i_lock_acquire = Event.index (Lock_acquire { lock_id = 0 })
and i_lock_release = Event.index (Lock_release { lock_id = 0 })
and i_msg_call = Event.index (Msg_call { name = "" })

let no_args = ",\"args\":{}}"

(* the opening of an args object whose first member is [key] *)
let first_key key =
  let rec find k = if Event.arg_keys.(k) = key then json_first_keys.(k) else find (k + 1) in
  find 0

let lock_args = first_key "lock"

let pid_args = first_key "pid"

(* A crossing's whole args object, per call index.  Decoded crossings
   carry the very strings of [Event.call_names], so a physical match finds
   the index; any other name takes the generic path, with the same text. *)
let call_args =
  Array.map (fun name -> first_key "call" ^ Metrics.Json.escape name ^ "\"}}") Event.call_names

let rec call_slot name i =
  if i = Array.length Event.call_names then -1
  else if Array.unsafe_get Event.call_names i == name then i
  else call_slot name (i + 1)

(* The text between an instant's timestamp and its args' first value, one
   string per cpu of the largest simulated machine: the tid, then [args]. *)
let tid_texts args = Array.init 256 (fun cpu -> ",\"pid\":0,\"tid\":" ^ string_of_int cpu ^ args)

let tid_plain = tid_texts ""
and tid_lock = tid_texts lock_args
and tid_pid = tid_texts pid_args
and tid_no_args = tid_texts no_args

(* an instant's text up to its args' first value *)
let add_instant_head d st (ev : Event.t) k texts args =
  add_string d (Array.unsafe_get instant_heads k);
  add_stamp d st ev.ts;
  let cpu = ev.cpu in
  if cpu >= 0 && cpu < Array.length texts then add_string d (Array.unsafe_get texts cpu)
  else begin
    add_string d ",\"pid\":0,\"tid\":";
    add_int d cpu;
    add_string d args
  end

(* The kinds that make up nearly every trace are written by a direct match,
   the same text [add_instant_generic] writes for them. *)
let add_instant d st (ev : Event.t) =
  match ev.kind with
  | Event.Lock_acquire { lock_id } ->
    add_instant_head d st ev i_lock_acquire tid_lock lock_args;
    add_int d lock_id;
    add_string d "\"}}"
  | Event.Lock_release { lock_id } ->
    add_instant_head d st ev i_lock_release tid_lock lock_args;
    add_int d lock_id;
    add_string d "\"}}"
  | Event.Msg_call { name } ->
    let i = call_slot name 0 in
    if i < 0 then add_instant_generic d st ev
    else begin
      add_instant_head d st ev i_msg_call tid_plain "";
      add_string d (Array.unsafe_get call_args i)
    end
  | Event.Tick -> add_instant_head d st ev i_tick tid_no_args no_args
  | Event.Idle -> add_instant_head d st ev i_idle tid_no_args no_args
  | Event.Dispatch { pid } ->
    add_instant_head d st ev i_dispatch tid_pid pid_args;
    add_int d pid;
    add_string d "\"}}"
  | _ -> add_instant_generic d st ev

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
   open slice (simulator pids are never negative); the tables grow to the
   highest cpu seen. *)
type runs = { mutable open_pid : int array; mutable open_ts : int array }

let runs () = { open_pid = [||]; open_ts = [||] }

let close_run d r cpu stop_ns =
  let pid = r.open_pid.(cpu) in
  if pid >= 0 then begin
    r.open_pid.(cpu) <- -1;
    add_complete_head d ~cat:"run" ~pid:0 ~tid:cpu ~task:pid ~start_ns:r.open_ts.(cpu) ~stop_ns;
    add_string d "}}"
  end

(* a negative cpu raises, as indexing a per-cpu table with it does *)
let run_cpu r cpu =
  let n = Array.length r.open_pid in
  if cpu >= n then begin
    let n' = max (2 * n) (cpu + 1) in
    r.open_pid <- Ds.Column.grow r.open_pid n' (-1);
    r.open_ts <- Ds.Column.grow r.open_ts n' 0
  end;
  cpu

let add_run_step d r (ev : Event.t) =
  match ev.kind with
  | Event.Dispatch { pid } ->
    let cpu = run_cpu r ev.cpu in
    close_run d r cpu ev.ts;
    r.open_pid.(cpu) <- pid;
    r.open_ts.(cpu) <- ev.ts
  | Event.Preempt { pid } | Event.Yield { pid } | Event.Block { pid } | Event.Exit { pid } ->
    let cpu = run_cpu r ev.cpu in
    if r.open_pid.(cpu) = pid then close_run d r cpu ev.ts
  | Event.Idle | Event.Sched_switch { next = None; _ } -> close_run d r (run_cpu r ev.cpu) ev.ts
  | Event.Sched_switch _ | Event.Wakeup _ | Event.Migrate _ | Event.Tick | Event.Pnt_err _
  | Event.Lock_acquire _ | Event.Lock_release _ | Event.Msg_call _ | Event.Panic _
  | Event.Failover _ | Event.Overrun _ | Event.Watchdog_fire _ | Event.Metric_flush _
  | Event.Dsq_insert _ | Event.Dsq_consume _ | Event.Fleet_op _ | Event.Req_enqueue _
  | Event.Req_take _ | Event.Req_done _ -> ()

let close_runs d r ~last_ts =
  for cpu = 0 to Array.length r.open_pid - 1 do
    close_run d r cpu last_ts
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

(* The sizing walk over the first [n] events, one at a time; what is left
   of the list after them.  No run slice or span opens or closes on a lock,
   crossing or tick event (most of a trace), so those are only sized:
   [Spans.add] is a call into another module. *)
let rec scan slices r sp instants st ~spans ~nr_cpus ~last_ts n = function
  | [] -> []
  | rest when n = 0 -> rest
  | (ev : Event.t) :: rest ->
    if ev.cpu >= !nr_cpus then nr_cpus := ev.cpu + 1;
    if ev.ts > !last_ts then last_ts := ev.ts;
    (match ev.kind with
    | Event.Lock_acquire _ | Event.Lock_release _ | Event.Msg_call _ | Event.Tick -> ()
    | _ ->
      add_run_step slices r ev;
      if spans then Spans.add sp ev);
    add_instant instants st ev;
    scan slices r sp instants st ~spans ~nr_cpus ~last_ts (n - 1) rest

(* The filling walk over the first [n] events: each event's instant, and
   the run slices it closes through the second cursor [s]. *)
let rec write s r d st n = function
  | (ev : Event.t) :: rest when n > 0 ->
    add_run_step s r ev;
    add_instant d st ev;
    write s r d st (n - 1) rest
  | _ -> ()

(* The run slices precede the instants in the document but come out of
   the same events, so each pass makes one walk that writes both: the
   slices through a second cursor into their own stretch of the document.
   The sizing walk also finds the cpu count and the last timestamp, derives
   the spans, and notes where the middle event's slices and instant go;
   the head and tail are sized after it, by the same writers the filling
   pass uses.  The filling pass writes the halves in two parts, the second
   beside the caller on a helper domain (see [fill]), and the spans tail
   with whichever half is shorter. *)
let chrome_json ?(spans = true) events =
  let slices = sizing () and instants = sizing () in
  let r = runs () in
  let sp = Spans.builder () and st = stamp () in
  let nr_cpus = ref 1 and last_ts = ref 0 in
  let mid = List.length events / 2 in
  let second = scan slices r sp instants st ~spans ~nr_cpus ~last_ts mid events in
  (* where the second half starts: its open run slices and both cursors' offsets *)
  let second_runs = { open_pid = Array.copy r.open_pid; open_ts = Array.copy r.open_ts }
  and slices_mid = slices.pos
  and instants_mid = instants.pos in
  ignore (scan slices r sp instants st ~spans ~nr_cpus ~last_ts max_int second : Event.t list);
  let nr_cpus = !nr_cpus and last_ts = !last_ts in
  close_runs slices r ~last_ts;
  let span_list = Spans.finish sp in
  let head d =
    add_string d "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    add_meta d ~pid:0 ~tid:0 ~name:"process_name" ~value:"machine";
    for cpu = 0 to nr_cpus - 1 do
      add_char d ',';
      add_meta d ~pid:0 ~tid:cpu ~name:"thread_name" ~value:("cpu " ^ string_of_int cpu)
    done
  in
  let tail d =
    if span_list <> [] then add_spans d span_list;
    add_string d "]}"
  in
  let h = sizing () and t = sizing () in
  head h;
  tail t;
  (* the document: head, slices, instants, tail *)
  let slices_0 = h.pos in
  let instants_0 = slices_0 + slices.pos in
  let tail_0 = instants_0 + instants.pos in
  let size = tail_0 + t.pos in
  let walk bytes r events n ~slices:(s0, s1) ~instants:(i0, i1) ~close =
    stretch bytes ~pos:s0 ~stop:s1 (fun s ->
        stretch bytes ~pos:i0 ~stop:i1 (fun d -> write s r d (stamp ()) n events);
        if close then close_runs s r ~last_ts)
  in
  let first_len = slices_0 + slices_mid + instants_mid in
  let tail_first = first_len <= tail_0 - first_len in
  let write_tail bytes = stretch bytes ~pos:tail_0 ~stop:size tail in
  fill size
    [
      (fun bytes ->
        stretch bytes ~pos:0 ~stop:slices_0 head;
        walk bytes (runs ()) events mid
          ~slices:(slices_0, slices_0 + slices_mid)
          ~instants:(instants_0, instants_0 + instants_mid)
          ~close:false;
        if tail_first then write_tail bytes);
      (fun bytes ->
        walk bytes second_runs second max_int
          ~slices:(slices_0 + slices_mid, instants_0)
          ~instants:(instants_0 + instants_mid, tail_0)
          ~close:true;
        if not tail_first then write_tail bytes);
    ]

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
