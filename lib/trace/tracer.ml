(* Per-CPU rings of packed events.  Every kind the machine and the Enoki-C
   boundary emit per dispatch — scheduling transitions, lock
   acquire/release, message crossings — is an [Event.tag] plus at most
   three small ints, so a ring is a [Slots.t] of 64-bit words (ts, cpu and
   tag, a, b, c) and the packed [emit_*] entry points write straight into
   it: no [Event.kind] variant, no option boxing, no record per event.
   Cold kinds (string-carrying diagnostics, affinity-masked wakeups,
   message names outside [Event.call_names]) keep their boxed
   representation in the slots' side column.  Subscribers get the packed
   fields too; events are decoded back to [Event.t] only at drain time.

   A ring's buffer is reserved, not filled, so its memory becomes resident
   only as slots are written; only slots in [head, head + len) are read.

   Drop discipline is identical to [Ds.Ring_buffer]: a full ring drops the
   {e newest} event and counts it, never blocking the emitter. *)

type ring = {
  slots : Slots.t;
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

let make_ring capacity = { slots = Slots.create capacity; r_head = 0; r_len = 0; r_dropped = 0 }

let create ?(capacity = 65536) ~nr_cpus () =
  if nr_cpus <= 0 then invalid_arg "Tracer.create: nr_cpus must be positive";
  if capacity <= 0 then invalid_arg "Tracer.create: capacity must be positive";
  if capacity > Slots.max_capacity then
    invalid_arg
      (Printf.sprintf "Tracer.create: capacity %d exceeds the largest ring (%d slots)" capacity
         Slots.max_capacity);
  { rings = Array.init nr_cpus (fun _ -> make_ring capacity); subscribers = []; emitted = 0 }

(* Claim the next write slot, or -1 when the ring is full — the newest
   event is the one dropped, matching [Ring_buffer.push]. *)
let[@inline] claim r =
  let cap = Slots.capacity r.slots in
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

(* [kind] is stored only for [T_cold]; the packed emitters pass [Tick].
   Inlined into each of them, so an emit is one call into this module. *)
let[@inline] emit_packed t ~ts ~cpu tag a b c kind =
  let cpu = if cpu >= 0 && cpu < Array.length t.rings then cpu else 0 in
  t.emitted <- t.emitted + 1;
  let r = t.rings.(cpu) in
  let i = claim r in
  if i >= 0 then Slots.set r.slots i ~ts ~cpu tag a b c kind;
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
   DSQ diagnostics): packed kinds are stored packed, so storage is
   the same whichever door an event came in by. *)
let emit t ~ts ~cpu kind =
  Event.pack kind (fun tag a b c kind -> emit_packed t ~ts ~cpu tag a b c kind)

let subscribe t f = t.subscribers <- t.subscribers @ [ f ]

let emitted t = t.emitted

let dropped_of_cpu t cpu = t.rings.(cpu).r_dropped

let dropped t = Array.fold_left (fun acc r -> acc + r.r_dropped) 0 t.rings

let buffered t = Array.fold_left (fun acc r -> acc + r.r_len) 0 t.rings

(* The merge keys an event by one int, [ts lsl bits lor cpu], so [ts] must
   fit in the bits the cpu number leaves: a ring is mergeable when its
   timestamps never step backwards (an emitter with its own clock could
   break that) and lie in [0, limit]. *)
let ring_mergeable r ~limit =
  let cap = Slots.capacity r.slots in
  let rec go left i prev =
    left = 0
    ||
    let ts = Slots.ts r.slots i in
    ts >= prev && ts <= limit && go (left - 1) (if i + 1 = cap then 0 else i + 1) ts
  in
  go r.r_len r.r_head 0

(* Fallback for unmergeable rings: drain everything in ring order, then a
   stable sort on the timestamp. *)
let events_sorted t =
  let drain r =
    let cap = Slots.capacity r.slots in
    let rec go acc =
      if r.r_len = 0 then List.rev acc
      else begin
        let i = r.r_head in
        r.r_head <- (i + 1) mod cap;
        r.r_len <- r.r_len - 1;
        go (Slots.take r.slots i :: acc)
      end
    in
    go []
  in
  Array.to_list (Array.map drain t.rings)
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
   gives.  The top ring gives up a whole run at a time: every event that
   still beats the best other ring's key, found and decoded in [Slots]. *)
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
      let cap = Slots.capacity r.slots in
      let last = (r.r_head + r.r_len - 1) mod cap in
      tail.(cpu) <- last;
      (* where a front-to-back drain would leave the head *)
      r.r_head <- (last + 1) mod cap;
      sift_up heap !n ((Slots.ts r.slots last lsl bits) lor cpu);
      incr n
    end
  done;
  let acc = ref [] in
  while !n > 0 do
    let cpu = heap.(0) land mask in
    let r = rings.(cpu) in
    let i = tail.(cpu) in
    (* keys are never negative: -1 when no other ring is left *)
    let other = if !n = 1 then -1 else if !n = 2 then heap.(1) else Int.max heap.(1) heap.(2) in
    let run =
      if other < 0 then r.r_len
      else
        (* beating (ts', cpu') takes a later ts, or the same ts on a higher cpu *)
        let ts' = other lsr bits in
        Slots.count_back r.slots i r.r_len
          ~min_ts:(if cpu > other land mask then ts' else ts' + 1)
    in
    acc := Slots.take_back r.slots i run !acc;
    r.r_len <- r.r_len - run;
    if r.r_len = 0 then begin
      decr n;
      sift_down heap !n 0 heap.(!n)
    end
    else begin
      let cap = Slots.capacity r.slots in
      let prev = if i >= run then i - run else i - run + cap in
      tail.(cpu) <- prev;
      sift_down heap !n 0 ((Slots.ts r.slots prev lsl bits) lor cpu)
    end
  done;
  !acc

let events t =
  let rec width b = if 1 lsl b >= Array.length t.rings then b else width (b + 1) in
  let bits = width 0 in
  let limit = max_int lsr bits in
  if Array.for_all (ring_mergeable ~limit) t.rings then events_merged t ~bits else events_sorted t

module Private = struct
  let dropped_of_cpu = dropped_of_cpu
end
