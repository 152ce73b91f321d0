type layer = int

let max_depth = 32

let sample_every = 64

(* accumulator slots per layer, in [dom.acc] *)
let a_calls = 0
let a_timed = 1
let a_wcalls = 2
let a_incl_ns = 3
let a_self_ns = 4
let a_children = 5
let a_incl_w = 6
let a_self_w = 7
let nslots = 8

(* ---------- layer registry ---------- *)

let registry_lock = Mutex.create ()

let names : (string * string) array ref = ref [||]

let layer fam hk =
  Mutex.protect registry_lock (fun () ->
      let rec find i =
        if i = Array.length !names then begin
          names := Array.append !names [| (fam, hk) |];
          i
        end
        else if !names.(i) = (fam, hk) then i
        else find (i + 1)
      in
      find 0)

let family l = fst !names.(l)

let hook l = snd !names.(l)

let layers () = List.init (Array.length !names) Fun.id

(* ---------- clocks ---------- *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let minor_words () = int_of_float (Gc.minor_words ())

(* ---------- the span sample ---------- *)

let sample_capacity = 10_000

let s_next = Atomic.make 0
let s_layer = Array.make sample_capacity 0
let s_start = Array.make sample_capacity 0
let s_dur = Array.make sample_capacity (-1)
let s_parent = Array.make sample_capacity (-1)
let s_dom = Array.make sample_capacity 0

let epoch = now_ns ()

(* the open {!root} marker: parent of spans opened with an empty stack *)
let root_id = Atomic.make (-1)

(* Which outermost spans are timed once the sample is full: 1 = all,
   0 = none (calibration only), otherwise one in [!every]. *)
let every = ref sample_every

(* ---------- per-domain stacks and accumulators ---------- *)

type dom = {
  index : int;
  mutable sp : int;
  mutable rng : int;
  mutable countdown : int;  (* outermost spans left until the next timed one *)
  st_layer : int array;
  st_weight : int array;  (* 0 = untimed, else the inverse timing probability *)
  st_t0 : int array;
  st_w0 : int array;
  st_id : int array;
  ch_ns : int array;
  ch_w : int array;
  ch_n : int array;
  mutable acc : int array;
  top_acc : int array;
}

let doms : dom list ref = ref []

let key =
  Domain.DLS.new_key (fun () ->
      Mutex.protect registry_lock (fun () ->
          let index = List.length !doms in
          let d =
            {
              index;
              sp = 0;
              rng = 0x9E37_79B9 + (index * 0x2545_F491);
              countdown = 1;
              st_layer = Array.make max_depth 0;
              st_weight = Array.make max_depth 0;
              st_t0 = Array.make max_depth 0;
              st_w0 = Array.make max_depth 0;
              st_id = Array.make max_depth (-1);
              ch_ns = Array.make max_depth 0;
              ch_w = Array.make max_depth 0;
              ch_n = Array.make max_depth 0;
              acc = Array.make (nslots * 64) 0;
              top_acc = Array.make nslots 0;
            }
          in
          doms := d :: !doms;
          d))

let claim_sample l ~parent ~dom =
  if Atomic.get s_next >= sample_capacity then -1
  else
    let id = Atomic.fetch_and_add s_next 1 in
    if id >= sample_capacity then -1
    else begin
      s_layer.(id) <- l;
      s_parent.(id) <- parent;
      s_dom.(id) <- dom;
      s_dur.(id) <- -1;
      id
    end

(* The weight of the outermost span whose countdown ran out, and the
   countdown to the next one: every span while the sample is open, then
   strides drawn uniformly from [1, 2k-1] (mean k), so a periodic call
   pattern cannot alias with the sampling. *)
let draw d =
  if Atomic.get s_next < sample_capacity || !every = 1 then begin
    d.countdown <- 1;
    1
  end
  else if !every = 0 then begin
    d.countdown <- max_int;
    0
  end
  else begin
    let k = !every in
    let x = d.rng in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    d.rng <- x;
    d.countdown <- 1 + ((x lsr 20) mod ((2 * k) - 1));
    k
  end

let enter l =
  let d = Domain.DLS.get key in
  let sp = d.sp in
  if sp = max_depth then failwith "Span.enter: spans nested too deeply";
  if (l + 1) * nslots > Array.length d.acc then begin
    let a = Array.make (2 * (l + 1) * nslots) 0 in
    Array.blit d.acc 0 a 0 (Array.length d.acc);
    d.acc <- a
  end;
  let base = l * nslots in
  d.acc.(base + a_calls) <- d.acc.(base + a_calls) + 1;
  let w =
    if sp > 0 then d.st_weight.(sp - 1)
    else begin
      let c = d.countdown - 1 in
      d.countdown <- c;
      if c > 0 then 0 else draw d
    end
  in
  d.st_layer.(sp) <- l;
  d.st_weight.(sp) <- w;
  d.sp <- sp + 1;
  if w > 0 then begin
    let parent = if sp > 0 then d.st_id.(sp - 1) else Atomic.get root_id in
    d.st_id.(sp) <- claim_sample l ~parent ~dom:d.index;
    d.ch_ns.(sp) <- 0;
    d.ch_w.(sp) <- 0;
    d.ch_n.(sp) <- 0;
    d.st_w0.(sp) <- minor_words ();
    (* the clock is read last on entry and first on exit, so a span's own
       duration holds as little of the bookkeeping as possible *)
    d.st_t0.(sp) <- now_ns ()
  end

let accumulate acc base ~w ~dur ~self ~children ~words ~self_words =
  acc.(base + a_timed) <- acc.(base + a_timed) + 1;
  acc.(base + a_wcalls) <- acc.(base + a_wcalls) + w;
  acc.(base + a_incl_ns) <- acc.(base + a_incl_ns) + (w * dur);
  acc.(base + a_self_ns) <- acc.(base + a_self_ns) + (w * self);
  acc.(base + a_children) <- acc.(base + a_children) + (w * children);
  acc.(base + a_incl_w) <- acc.(base + a_incl_w) + (w * words);
  acc.(base + a_self_w) <- acc.(base + a_self_w) + (w * self_words)

let leave l =
  let d = Domain.DLS.get key in
  let sp = d.sp - 1 in
  if sp < 0 || d.st_layer.(sp) <> l then invalid_arg "Span.leave: not the innermost open span";
  d.sp <- sp;
  let w = d.st_weight.(sp) in
  if w > 0 then begin
    let t1 = now_ns () in
    let w1 = minor_words () in
    let t0 = d.st_t0.(sp) in
    let dur = t1 - t0 and words = w1 - d.st_w0.(sp) in
    let self = dur - d.ch_ns.(sp)
    and self_words = words - d.ch_w.(sp)
    and children = d.ch_n.(sp) in
    accumulate d.acc (l * nslots) ~w ~dur ~self ~children ~words ~self_words;
    if sp > 0 then begin
      d.ch_ns.(sp - 1) <- d.ch_ns.(sp - 1) + dur;
      d.ch_w.(sp - 1) <- d.ch_w.(sp - 1) + words;
      d.ch_n.(sp - 1) <- d.ch_n.(sp - 1) + 1
    end
    else accumulate d.top_acc 0 ~w ~dur ~self ~children ~words ~self_words;
    let id = d.st_id.(sp) in
    if id >= 0 then begin
      s_start.(id) <- t0 - epoch;
      s_dur.(id) <- dur
    end
  end

let with_every k f =
  let outer = !every in
  every := k;
  List.iter (fun d -> d.countdown <- 1) (Mutex.protect registry_lock (fun () -> !doms));
  Fun.protect f ~finally:(fun () -> every := outer)

let root l f =
  let id = claim_sample l ~parent:(-1) ~dom:(Domain.DLS.get key).index in
  let outer = Atomic.get root_id in
  Atomic.set root_id id;
  let t0 = now_ns () in
  let finish () =
    if id >= 0 then begin
      s_start.(id) <- t0 - epoch;
      s_dur.(id) <- now_ns () - t0
    end;
    Atomic.set root_id outer
  in
  match f () with
  | r ->
    finish ();
    r
  | exception e ->
    finish ();
    raise e

(* ---------- reading the accumulators ---------- *)

type totals = {
  calls : int;
  timed : int;
  wcalls : int;
  incl_ns : int;
  self_ns : int;
  children : int;
  incl_words : int;
  self_words : int;
}

let zero =
  {
    calls = 0;
    timed = 0;
    wcalls = 0;
    incl_ns = 0;
    self_ns = 0;
    children = 0;
    incl_words = 0;
    self_words = 0;
  }

let add a b =
  {
    calls = a.calls + b.calls;
    timed = a.timed + b.timed;
    wcalls = a.wcalls + b.wcalls;
    incl_ns = a.incl_ns + b.incl_ns;
    self_ns = a.self_ns + b.self_ns;
    children = a.children + b.children;
    incl_words = a.incl_words + b.incl_words;
    self_words = a.self_words + b.self_words;
  }

let all_doms () = Mutex.protect registry_lock (fun () -> !doms)

let of_slots acc base =
  {
    calls = acc.(base + a_calls);
    timed = acc.(base + a_timed);
    wcalls = acc.(base + a_wcalls);
    incl_ns = acc.(base + a_incl_ns);
    self_ns = acc.(base + a_self_ns);
    children = acc.(base + a_children);
    incl_words = acc.(base + a_incl_w);
    self_words = acc.(base + a_self_w);
  }

let totals l =
  List.fold_left
    (fun t d ->
      if (l + 1) * nslots <= Array.length d.acc then add t (of_slots d.acc (l * nslots)) else t)
    zero (all_doms ())

let top () = List.fold_left (fun t d -> add t (of_slots d.top_acc 0)) zero (all_doms ())

let reset () =
  List.iter
    (fun d ->
      if d.sp <> 0 then invalid_arg "Span.reset: a span is open";
      Array.fill d.acc 0 (Array.length d.acc) 0;
      Array.fill d.top_acc 0 nslots 0;
      d.countdown <- 1)
    (all_doms ());
  Atomic.set s_next 0;
  Atomic.set root_id (-1)

(* ---------- calibration ---------- *)

type calibration = {
  inside_ns : float;
  total_ns : float;
  untimed_ns : float;
  inside_words : float;
  total_words : float;
}

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* One round of [n] calls each: the bare loop, the unwrapped body, and the
   wrapped body with every span timed and with none.  The sample is closed
   first: the instrumented runs spend almost all their spans in that
   state. *)
let calibration_round ~bare ~wrapped ~probe n =
  let loop f =
    let w0 = minor_words () and t0 = now_ns () in
    for _ = 1 to n do
      f ()
    done;
    (now_ns () - t0, minor_words () - w0)
  in
  let empty_ns, _ = loop (fun () -> ignore (Sys.opaque_identity probe)) in
  let bare_ns, bare_w = loop bare in
  let mode k =
    reset ();
    Atomic.set s_next sample_capacity;
    every := k
  in
  mode 1;
  let timed_ns, timed_w = loop wrapped in
  let t = totals probe in
  mode 0;
  let untimed_ns, _ = loop wrapped in
  every := sample_every;
  let per x = float_of_int x /. float_of_int n in
  let body_ns = per (bare_ns - empty_ns) in
  {
    inside_ns = per t.incl_ns -. body_ns;
    total_ns = per (timed_ns - bare_ns);
    untimed_ns = per (untimed_ns - bare_ns);
    inside_words = per t.incl_words;
    total_words = per (timed_w - bare_w);
  }

let calibrate ~bare ~wrapped ~probe =
  let rounds = List.init 5 (fun _ -> calibration_round ~bare ~wrapped ~probe 1_000_000) in
  reset ();
  let med f = median (List.map f rounds) in
  {
    inside_ns = med (fun c -> c.inside_ns);
    total_ns = med (fun c -> c.total_ns);
    untimed_ns = med (fun c -> c.untimed_ns);
    inside_words = med (fun c -> c.inside_words);
    total_words = med (fun c -> c.total_words);
  }

let fl = float_of_int

let self_ns c t =
  fl t.self_ns -. (fl t.wcalls *. c.inside_ns) -. (fl t.children *. (c.total_ns -. c.inside_ns))

let self_words c t =
  fl t.self_words
  -. (fl t.wcalls *. c.inside_words)
  -. (fl t.children *. (c.total_words -. c.inside_words))

let all_layers () = List.fold_left (fun t l -> add t (totals l)) zero (layers ())

(* An outermost timed span's duration holds its true cost, [inside], and
   the whole wrapper of every span nested in it; every span, timed or
   not, also cost its wrapper outside any window. *)
let outside_ns c ~run_ns =
  let all = all_layers () and top = top () in
  let nested = all.wcalls - top.wcalls in
  let true_top = fl top.incl_ns -. (fl top.wcalls *. c.inside_ns) -. (fl nested *. c.total_ns) in
  let wrappers = (fl all.timed *. c.total_ns) +. (fl (all.calls - all.timed) *. c.untimed_ns) in
  fl run_ns -. true_top -. wrappers

let outside_words c ~run_words =
  let all = all_layers () and top = top () in
  let nested = all.wcalls - top.wcalls in
  let true_top =
    fl top.incl_words -. (fl top.wcalls *. c.inside_words) -. (fl nested *. c.total_words)
  in
  fl run_words -. true_top -. (fl all.timed *. c.total_words)

(* ---------- sample export ---------- *)

let sample_size () = min sample_capacity (Atomic.get s_next)

let sample_chrome_json () =
  let b = Buffer.create (sample_size () * 120) in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  for id = 0 to sample_size () - 1 do
    (* a span still open when the sample was taken has no duration yet *)
    if s_dur.(id) >= 0 then begin
      if not !first then Buffer.add_char b ',';
      first := false;
      let l = s_layer.(id) in
      Printf.bprintf b
        "{\"name\":\"%s.%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\
         \"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d}}"
        (family l) (hook l) (family l)
        (float_of_int s_start.(id) /. 1e3)
        (float_of_int s_dur.(id) /. 1e3)
        s_dom.(id) id s_parent.(id)
    end
  done;
  Buffer.add_string b "]}";
  Buffer.contents b
