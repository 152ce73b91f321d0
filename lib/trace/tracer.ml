(* Per-CPU rings in struct-of-arrays int encoding.  Every kind the machine
   and the Enoki-C boundary emit per dispatch — scheduling transitions,
   lock acquire/release, message crossings — is an [Event.tag] plus at most
   three small ints, so each ring stores parallel columns (ts, tag, a, b,
   c) and the packed [emit_*] entry points write straight into them: no
   [Event.kind] variant, no option boxing, no record per event.  Cold kinds
   (string-carrying diagnostics, affinity-masked wakeups, message names
   outside [Event.call_names]) keep their boxed representation in a
   lazily-allocated side column.  Subscribers get the packed fields too;
   events are decoded back to [Event.t] only at drain time.

   Drop discipline is identical to [Ds.Ring_buffer]: a full ring drops the
   {e newest} event and counts it, never blocking the emitter. *)

type ring = {
  r_ts : int array;
  r_tag : Event.tag array;
  r_a : int array;
  r_b : int array;
  r_c : int array;
  (* boxed payloads for cold kinds, parallel to the int columns, only read
     where [r_tag] = [T_cold]; allocated on first cold emit because most
     rings never see one *)
  mutable r_cold : Event.kind array;
  mutable r_head : int; (* next slot to pop *)
  mutable r_len : int;
  mutable r_dropped : int;
}

type subscriber = ts:int -> cpu:int -> Event.tag -> int -> int -> int -> Event.kind -> unit

type t = {
  rings : ring array;
  mutable subscribers : subscriber list;
  mutable emitted : int;
}

let make_ring capacity =
  {
    r_ts = Array.make capacity 0;
    r_tag = Array.make capacity Event.T_tick;
    r_a = Array.make capacity 0;
    r_b = Array.make capacity 0;
    r_c = Array.make capacity 0;
    r_cold = [||];
    r_head = 0;
    r_len = 0;
    r_dropped = 0;
  }

let create ?(capacity = 65536) ~nr_cpus () =
  if nr_cpus <= 0 then invalid_arg "Tracer.create: nr_cpus must be positive";
  if capacity <= 0 then invalid_arg "Tracer.create: capacity must be positive";
  { rings = Array.init nr_cpus (fun _ -> make_ring capacity); subscribers = []; emitted = 0 }

let nr_cpus t = Array.length t.rings

(* Claim the next write slot, or -1 when the ring is full — the newest
   event is the one dropped, matching [Ring_buffer.push]. *)
let claim r =
  let cap = Array.length r.r_ts in
  if r.r_len = cap then begin
    r.r_dropped <- r.r_dropped + 1;
    -1
  end
  else begin
    let i = r.r_head + r.r_len in
    let i = if i >= cap then i - cap else i in
    r.r_len <- r.r_len + 1;
    i
  end

let rec deliver subs ~ts ~cpu tag a b c kind =
  match subs with
  | [] -> ()
  | (f : subscriber) :: rest ->
    f ~ts ~cpu tag a b c kind;
    deliver rest ~ts ~cpu tag a b c kind

(* [kind] is stored only for [T_cold]; the packed emitters pass [Tick] *)
let emit_packed t ~ts ~cpu tag a b c kind =
  let cpu = if cpu >= 0 && cpu < Array.length t.rings then cpu else 0 in
  t.emitted <- t.emitted + 1;
  let r = t.rings.(cpu) in
  let i = claim r in
  if i >= 0 then begin
    r.r_ts.(i) <- ts;
    r.r_tag.(i) <- tag;
    r.r_a.(i) <- a;
    r.r_b.(i) <- b;
    r.r_c.(i) <- c;
    match tag with
    | Event.T_cold ->
      if Array.length r.r_cold = 0 then r.r_cold <- Array.make (Array.length r.r_ts) Event.Tick;
      r.r_cold.(i) <- kind
    | _ -> ()
  end;
  match t.subscribers with [] -> () | subs -> deliver subs ~ts ~cpu tag a b c kind

let emit_switch t ~ts ~cpu ~prev ~next = emit_packed t ~ts ~cpu T_switch prev next 0 Tick
let emit_wakeup t ~ts ~cpu ~pid ~waker_cpu = emit_packed t ~ts ~cpu T_wakeup pid waker_cpu 0 Tick
let emit_dispatch t ~ts ~cpu ~pid = emit_packed t ~ts ~cpu T_dispatch pid 0 0 Tick
let emit_preempt t ~ts ~cpu ~pid = emit_packed t ~ts ~cpu T_preempt pid 0 0 Tick
let emit_yield t ~ts ~cpu ~pid = emit_packed t ~ts ~cpu T_yield pid 0 0 Tick
let emit_block t ~ts ~cpu ~pid = emit_packed t ~ts ~cpu T_block pid 0 0 Tick
let emit_exit t ~ts ~cpu ~pid = emit_packed t ~ts ~cpu T_exit pid 0 0 Tick
let emit_migrate t ~ts ~cpu ~pid ~from_cpu ~to_cpu =
  emit_packed t ~ts ~cpu T_migrate pid from_cpu to_cpu Tick
let emit_tick t ~ts ~cpu = emit_packed t ~ts ~cpu T_tick 0 0 0 Tick
let emit_idle t ~ts ~cpu = emit_packed t ~ts ~cpu T_idle 0 0 0 Tick
let emit_lock_acquire t ~ts ~cpu ~lock_id = emit_packed t ~ts ~cpu T_lock_acquire lock_id 0 0 Tick
let emit_lock_release t ~ts ~cpu ~lock_id = emit_packed t ~ts ~cpu T_lock_release lock_id 0 0 Tick
let emit_msg_call t ~ts ~cpu ~call = emit_packed t ~ts ~cpu T_msg_call call 0 0 Tick

let emit_tag t ~ts ~cpu tag a b c =
  match tag with
  | Event.T_cold -> invalid_arg "Tracer.emit_tag: a cold kind goes through emit"
  | _ -> emit_packed t ~ts ~cpu tag a b c Tick

(* Boxed entry point, for the cold emitters (fleet orchestration, faults,
   DSQ diagnostics): packed kinds go into the int columns, so storage is
   the same whichever door an event came in by. *)
let emit t ~ts ~cpu kind =
  Event.pack kind (fun tag a b c kind -> emit_packed t ~ts ~cpu tag a b c kind)

let subscribe t f = t.subscribers <- t.subscribers @ [ f ]

let emitted t = t.emitted

let dropped_of_cpu t cpu = t.rings.(cpu).r_dropped

let dropped t = Array.fold_left (fun acc r -> acc + r.r_dropped) 0 t.rings

let buffered t = Array.fold_left (fun acc r -> acc + r.r_len) 0 t.rings

(* Decode slot [i] of [cpu]'s ring, releasing its cold payload. *)
let take cpu r i =
  let kind =
    match r.r_tag.(i) with
    | Event.T_cold ->
      let k = r.r_cold.(i) in
      r.r_cold.(i) <- Event.Tick;
      k
    | tag -> Event.unpack tag r.r_a.(i) r.r_b.(i) r.r_c.(i) Event.Tick
  in
  { Event.ts = r.r_ts.(i); cpu; kind }

(* The merge keys an event by one int, [ts lsl bits lor cpu], so [ts] must
   fit in the bits the cpu number leaves: a ring is mergeable when its
   timestamps never step backwards (an emitter with its own clock could
   break that) and lie in [0, limit]. *)
let ring_mergeable r ~limit =
  let cap = Array.length r.r_ts in
  let rec go left i prev =
    left = 0
    ||
    let ts = r.r_ts.(i) in
    ts >= prev && ts <= limit && go (left - 1) (if i + 1 = cap then 0 else i + 1) ts
  in
  go r.r_len r.r_head 0

(* Fallback for unmergeable rings: drain everything in ring order, then a
   stable sort on the timestamp. *)
let events_sorted t =
  let drain cpu r =
    let cap = Array.length r.r_ts in
    let rec go acc =
      if r.r_len = 0 then List.rev acc
      else begin
        let i = r.r_head in
        r.r_head <- (i + 1) mod cap;
        r.r_len <- r.r_len - 1;
        go (take cpu r i :: acc)
      end
    in
    go []
  in
  Array.to_list (Array.mapi drain t.rings)
  |> List.concat
  |> List.stable_sort (fun (a : Event.t) (b : Event.t) -> Int.compare a.ts b.ts)

(* Binary max-heap of merge keys, with a hole at [i] to fill with [key]. *)
let rec sift_down (heap : int array) n i key =
  let l = (2 * i) + 1 in
  let m = if l + 1 < n && heap.(l + 1) > heap.(l) then l + 1 else l in
  if l < n && heap.(m) > key then begin
    heap.(i) <- heap.(m);
    sift_down heap n m key
  end
  else heap.(i) <- key

let rec sift_up (heap : int array) i key =
  let p = (i - 1) / 2 in
  if i > 0 && heap.(p) < key then begin
    heap.(i) <- heap.(p);
    sift_up heap p key
  end
  else heap.(i) <- key

(* k-way merge of the time-ordered rings, newest first so the result list
   is built back to front.  The heap holds one key per non-empty cpu, for
   its newest undrained event; the largest (ts, cpu) comes off first, so
   among equal timestamps the higher cpu is consed first and the lower cpu
   ends up ahead — the order a stable sort of the per-cpu concatenation
   gives. *)
let events_merged t ~bits =
  let rings = t.rings in
  let k = Array.length rings in
  let mask = (1 lsl bits) - 1 in
  let heap = Array.make k 0 in
  (* per cpu: slot of the newest undrained event *)
  let tail = Array.make k 0 in
  let n = ref 0 in
  for cpu = 0 to k - 1 do
    let r = rings.(cpu) in
    if r.r_len > 0 then begin
      let cap = Array.length r.r_ts in
      let last = (r.r_head + r.r_len - 1) mod cap in
      tail.(cpu) <- last;
      (* where a front-to-back drain would leave the head *)
      r.r_head <- (last + 1) mod cap;
      sift_up heap !n ((r.r_ts.(last) lsl bits) lor cpu);
      incr n
    end
  done;
  let acc = ref [] in
  while !n > 0 do
    let cpu = heap.(0) land mask in
    let r = rings.(cpu) in
    let i = tail.(cpu) in
    acc := take cpu r i :: !acc;
    r.r_len <- r.r_len - 1;
    if r.r_len = 0 then begin
      decr n;
      sift_down heap !n 0 heap.(!n)
    end
    else begin
      let prev = if i = 0 then Array.length r.r_ts - 1 else i - 1 in
      tail.(cpu) <- prev;
      sift_down heap !n 0 ((r.r_ts.(prev) lsl bits) lor cpu)
    end
  done;
  !acc

let events t =
  let rec width b = if 1 lsl b >= Array.length t.rings then b else width (b + 1) in
  let bits = width 0 in
  let limit = max_int lsr bits in
  if Array.for_all (ring_mergeable ~limit) t.rings then events_merged t ~bits else events_sorted t
