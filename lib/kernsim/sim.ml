type backend = [ `Heap | `Pid_heap ]

(* Default backend.  An event is a small-int slot with columns [time] (the
   heap key), [seq] (the heap tie), [pos] (kept by the heap) and [thunk],
   ordered in a [Ds.Pid_heap] by (time, seq): seqs are unique, so the
   slot index never breaks a tie.  A one-shot slot goes back on the free
   list when it fires, and a free slot's [seq] links that list.  A timer
   owns one slot for life ([oneshot] false), so re-arming allocates
   nothing. *)
type slots = {
  heap : Ds.Pid_heap.t;
  mutable time : int array;
  mutable seq : int array;
  mutable pos : int array;
  mutable thunk : (unit -> unit) array;
  mutable oneshot : bool array;
  mutable free : int;  (* head of the free list, -1 when empty *)
  mutable used : int;  (* slots handed out so far *)
}

(* Heap-backend event.  [hpos] is maintained by the heap's [on_move] hook
   so armed timers can be cancelled in O(log n) instead of tombstoned. *)
type event = {
  mutable time : Time.ns;
  mutable seq : int;
  mutable thunk : unit -> unit;
  mutable hpos : int;
}

type impl =
  | P of slots
  | H of event Ds.Heap.t

type t = {
  impl : impl;
  mutable clock : Time.ns;
  mutable next_seq : int;
  mutable dispatched : int;
}

type timer =
  | TP of slots * int
  | TH of th

and th = { th_ev : event; mutable th_armed : bool }

let compare_event (a : event) (b : event) =
  match Int.compare a.time b.time with 0 -> Int.compare a.seq b.seq | c -> c

let nothing () = ()

let create ?(backend = `Pid_heap) () =
  let impl =
    match backend with
    | `Pid_heap ->
        P
          { heap = Ds.Pid_heap.create (); time = [||]; seq = [||]; pos = [||]; thunk = [||];
            oneshot = [||]; free = -1; used = 0 }
    | `Heap -> H (Ds.Heap.create ~on_move:(fun e i -> e.hpos <- i) ~compare:compare_event ())
  in
  { impl; clock = 0; next_seq = 0; dispatched = 0 }

let backend t = match t.impl with P _ -> `Pid_heap | H _ -> `Heap

let now t = t.clock

let dispatched t = t.dispatched

let next_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let new_slot (q : slots) ~oneshot f =
  let s = q.used in
  if s = Array.length q.time then begin
    let n = max 64 (2 * s) in
    q.time <- Ds.Column.grow q.time n 0;
    q.seq <- Ds.Column.grow q.seq n 0;
    q.pos <- Ds.Column.grow q.pos n (-1);
    q.thunk <- Ds.Column.grow q.thunk n nothing;
    q.oneshot <- Ds.Column.grow q.oneshot n false
  end;
  q.used <- s + 1;
  q.thunk.(s) <- f;
  q.oneshot.(s) <- oneshot;
  s

(* queue slot [s] at (time, seq) *)
let push (q : slots) s ~time ~seq =
  q.time.(s) <- time;
  q.seq.(s) <- seq;
  Ds.Pid_heap.add q.heap ~key:q.time ~tie:q.seq ~pos:q.pos s

let unqueue (q : slots) s = Ds.Pid_heap.remove q.heap ~key:q.time ~tie:q.seq ~pos:q.pos s

let at t ~time f =
  let time = max time t.clock in
  let seq = next_seq t in
  match t.impl with
  | P q ->
      let s = q.free in
      let s =
        if s >= 0 then begin
          q.free <- q.seq.(s);
          q.thunk.(s) <- f;
          s
        end
        else new_slot q ~oneshot:true f
      in
      push q s ~time ~seq
  | H h -> Ds.Heap.add h { time; seq; thunk = f; hpos = -1 }

(* A negative delay is always a caller bug (typically a broken cost
   model); clamping it to 0 would silently reorder same-tick events and
   mask the bug, so fail loudly instead.  Zero stays legal. *)
let after t ~delay f =
  if delay < 0 then invalid_arg "Sim.after: negative delay";
  at t ~time:(t.clock + delay) f

let timer t f =
  match t.impl with
  | P q -> TP (q, new_slot q ~oneshot:false f)
  | H _ ->
      let rec th =
        { th_ev =
            { time = 0; seq = 0;
              thunk = (fun () -> th.th_armed <- false; f ());
              hpos = -1 };
          th_armed = false }
      in
      TH th

let arm_at t tm ~time =
  let time = max time t.clock in
  let seq = next_seq t in
  match t.impl, tm with
  | P q, TP (q', s) when q == q' ->
      unqueue q s;
      push q s ~time ~seq
  | H h, TH th ->
      if th.th_armed then ignore (Ds.Heap.remove_at h th.th_ev.hpos);
      th.th_ev.time <- time;
      th.th_ev.seq <- seq;
      th.th_armed <- true;
      Ds.Heap.add h th.th_ev
  | _ -> invalid_arg "Sim.arm_at: timer from another simulator"

let arm_after t tm ~delay =
  if delay < 0 then invalid_arg "Sim.arm_after: negative delay";
  arm_at t tm ~time:(t.clock + delay)

let cancel t tm =
  match t.impl, tm with
  | P q, TP (q', s) when q == q' -> unqueue q s
  | H h, TH th ->
      if th.th_armed then begin
        ignore (Ds.Heap.remove_at h th.th_ev.hpos);
        th.th_armed <- false
      end
  | _ -> invalid_arg "Sim.cancel: timer from another simulator"

let timer_pending = function
  | TP (q, s) -> q.pos.(s) >= 0
  | TH th -> th.th_armed

(* Pop slot [s], the minimum, and run it.  A one-shot slot is freed first,
   so its callback may reuse it; a timer is already not pending when its
   callback runs, so the callback may re-arm it. *)
let fire t (q : slots) s =
  unqueue q s;
  t.clock <- q.time.(s);
  t.dispatched <- t.dispatched + 1;
  let f = q.thunk.(s) in
  if q.oneshot.(s) then begin
    q.thunk.(s) <- nothing;
    q.seq.(s) <- q.free;
    q.free <- s
  end;
  f ()

(* The dispatch loops are toplevel recursive functions, not local
   closures: locals capturing [t]/[until] would allocate per call. *)
let rec run_slots t (q : slots) until =
  let s = Ds.Pid_heap.top q.heap in
  if s >= 0 && q.time.(s) <= until then begin
    fire t q s;
    run_slots t q until
  end
  else if t.clock < until then t.clock <- until

let rec run_heap t h until =
  match Ds.Heap.peek h with
  | Some ev when ev.time <= until ->
      ignore (Ds.Heap.pop h);
      t.clock <- ev.time;
      t.dispatched <- t.dispatched + 1;
      ev.thunk ();
      run_heap t h until
  | Some _ | None -> if t.clock < until then t.clock <- until

let run_until t ~until =
  match t.impl with
  | P q -> run_slots t q until
  | H h -> run_heap t h until

let rec run_slots_all t (q : slots) =
  let s = Ds.Pid_heap.top q.heap in
  if s >= 0 then begin
    fire t q s;
    run_slots_all t q
  end

let rec run_heap_all t h =
  match Ds.Heap.pop h with
  | Some ev ->
      t.clock <- ev.time;
      t.dispatched <- t.dispatched + 1;
      ev.thunk ();
      run_heap_all t h
  | None -> ()

let run t =
  match t.impl with
  | P q -> run_slots_all t q
  | H h -> run_heap_all t h

let pending t =
  match t.impl with
  | P q -> Ds.Pid_heap.length q.heap
  | H h -> Ds.Heap.length h
