(* An event is a small-int slot with columns [time] (the heap key), [seq]
   (the heap tie), [pos] (kept by the heap) and [thunk], ordered in a
   [Ds.Pid_heap] by (time, seq): seqs are unique, so the slot index never
   breaks a tie.  A one-shot slot goes back on the free list when it
   fires, and a free slot's [seq] links that list.  A timer owns one slot
   for life ([oneshot] false), so re-arming allocates nothing. *)
type t = {
  heap : Ds.Pid_heap.t;
  mutable time : int array;
  mutable seq : int array;
  mutable pos : int array;
  mutable thunk : (unit -> unit) array;
  mutable oneshot : bool array;
  mutable free : int;  (* head of the free list, -1 when empty *)
  mutable used : int;  (* slots handed out so far *)
  mutable clock : Time.ns;
  mutable next_seq : int;
  mutable dispatched : int;
}

type timer = { sim : t; slot : int }

let nothing () = ()

let create () =
  { heap = Ds.Pid_heap.create (); time = [||]; seq = [||]; pos = [||]; thunk = [||];
    oneshot = [||]; free = -1; used = 0; clock = 0; next_seq = 0; dispatched = 0 }

let now t = t.clock

let dispatched t = t.dispatched

let next_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let new_slot t ~oneshot f =
  let s = t.used in
  if s = Array.length t.time then begin
    let n = max 64 (2 * s) in
    t.time <- Ds.Column.grow t.time n 0;
    t.seq <- Ds.Column.grow t.seq n 0;
    t.pos <- Ds.Column.grow t.pos n (-1);
    t.thunk <- Ds.Column.grow t.thunk n nothing;
    t.oneshot <- Ds.Column.grow t.oneshot n false
  end;
  t.used <- s + 1;
  t.thunk.(s) <- f;
  t.oneshot.(s) <- oneshot;
  s

(* queue slot [s] at (time, seq) *)
let push t s ~time ~seq =
  t.time.(s) <- time;
  t.seq.(s) <- seq;
  Ds.Pid_heap.add t.heap ~key:t.time ~tie:t.seq ~pos:t.pos s

let unqueue t s = Ds.Pid_heap.remove t.heap ~key:t.time ~tie:t.seq ~pos:t.pos s

let at t ~time f =
  let time = max time t.clock in
  let seq = next_seq t in
  let s = t.free in
  let s =
    if s >= 0 then begin
      t.free <- t.seq.(s);
      t.thunk.(s) <- f;
      s
    end
    else new_slot t ~oneshot:true f
  in
  push t s ~time ~seq

(* A negative delay is always a caller bug (typically a broken cost
   model); clamping it to 0 would silently reorder same-tick events and
   mask the bug, so fail loudly instead.  Zero stays legal. *)
let after t ~delay f =
  if delay < 0 then invalid_arg "Sim.after: negative delay";
  at t ~time:(t.clock + delay) f

let timer t f = { sim = t; slot = new_slot t ~oneshot:false f }

let arm_at t tm ~time =
  if tm.sim != t then invalid_arg "Sim.arm_at: timer from another simulator";
  let time = max time t.clock in
  let seq = next_seq t in
  unqueue t tm.slot;
  push t tm.slot ~time ~seq

let arm_after t tm ~delay =
  if delay < 0 then invalid_arg "Sim.arm_after: negative delay";
  arm_at t tm ~time:(t.clock + delay)

let cancel t tm =
  if tm.sim != t then invalid_arg "Sim.cancel: timer from another simulator";
  unqueue t tm.slot

(* Pop slot [s], the minimum, and run it.  A one-shot slot is freed first,
   so its callback may reuse it; a timer is already not pending when its
   callback runs, so the callback may re-arm it. *)
let fire t s =
  unqueue t s;
  t.clock <- t.time.(s);
  t.dispatched <- t.dispatched + 1;
  let f = t.thunk.(s) in
  if t.oneshot.(s) then begin
    t.thunk.(s) <- nothing;
    t.seq.(s) <- t.free;
    t.free <- s
  end;
  f ()

(* The dispatch loops are toplevel recursive functions, not local
   closures: locals capturing [t]/[until] would allocate per call. *)
let rec run_until t ~until =
  let s = Ds.Pid_heap.top t.heap in
  if s >= 0 && t.time.(s) <= until then begin
    fire t s;
    run_until t ~until
  end
  else if t.clock < until then t.clock <- until

let rec run t =
  let s = Ds.Pid_heap.top t.heap in
  if s >= 0 then begin
    fire t s;
    run t
  end

let pending t = Ds.Pid_heap.length t.heap

module Private = struct
  let timer_pending tm = tm.sim.pos.(tm.slot) >= 0

  let pending = pending
end
