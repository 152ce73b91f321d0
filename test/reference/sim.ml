(** The reference event queue: the boxed binary heap {!Kernsim.Sim}
    replaced, with the same interface and the same dispatch order.
    Events are boxed records ordered by (time, sequence number) in a
    {!Heap}; a timer owns one record and records its heap index through
    the heap's [on_move] hook, so cancelling removes the event instead of
    leaving a tombstone.  Tests hold {!Kernsim.Sim} equal to this module
    on generated scripts, and the bench speed suite times the two at
    fixed queue depths. *)

(** The interface both queues offer, so a test or a bench row can take
    either as a first-class module.  Queue depth is not in it: the
    kernel queue offers it to tests only. *)
module type S = sig
  type t

  val create : unit -> t

  val now : t -> int

  val at : t -> time:int -> (unit -> unit) -> unit

  val after : t -> delay:int -> (unit -> unit) -> unit

  type timer

  val timer : t -> (unit -> unit) -> timer

  val arm_at : t -> timer -> time:int -> unit

  val arm_after : t -> timer -> delay:int -> unit

  val cancel : t -> timer -> unit

  val run_until : t -> until:int -> unit

  val run : t -> unit

  val dispatched : t -> int
end

(* [hpos] is maintained by the heap's [on_move] hook so armed timers can
   be cancelled in O(log n) instead of tombstoned. *)
type event = {
  mutable time : int;
  mutable seq : int;
  mutable thunk : unit -> unit;
  mutable hpos : int;
}

type t = {
  heap : event Heap.t;
  mutable clock : int;
  mutable next_seq : int;
  mutable dispatched : int;
}

type timer = { ev : event; mutable armed : bool }

let compare_event (a : event) (b : event) =
  match Int.compare a.time b.time with 0 -> Int.compare a.seq b.seq | c -> c

let create () =
  { heap = Heap.create ~on_move:(fun e i -> e.hpos <- i) ~compare:compare_event ();
    clock = 0; next_seq = 0; dispatched = 0 }

let now t = t.clock

let dispatched t = t.dispatched

let next_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let at t ~time f =
  let time = max time t.clock in
  let seq = next_seq t in
  Heap.add t.heap { time; seq; thunk = f; hpos = -1 }

let after t ~delay f =
  if delay < 0 then invalid_arg "Sim.after: negative delay";
  at t ~time:(t.clock + delay) f

let timer _ f =
  let rec tm =
    { ev = { time = 0; seq = 0; thunk = (fun () -> tm.armed <- false; f ()); hpos = -1 };
      armed = false }
  in
  tm

let arm_at t tm ~time =
  let time = max time t.clock in
  let seq = next_seq t in
  if tm.armed then ignore (Heap.remove_at t.heap tm.ev.hpos);
  tm.ev.time <- time;
  tm.ev.seq <- seq;
  tm.armed <- true;
  Heap.add t.heap tm.ev

let arm_after t tm ~delay =
  if delay < 0 then invalid_arg "Sim.arm_after: negative delay";
  arm_at t tm ~time:(t.clock + delay)

let cancel t tm =
  if tm.armed then begin
    ignore (Heap.remove_at t.heap tm.ev.hpos);
    tm.armed <- false
  end

let rec run_until t ~until =
  match Heap.peek t.heap with
  | Some ev when ev.time <= until ->
      ignore (Heap.pop t.heap);
      t.clock <- ev.time;
      t.dispatched <- t.dispatched + 1;
      ev.thunk ();
      run_until t ~until
  | Some _ | None -> if t.clock < until then t.clock <- until

let rec run t =
  match Heap.pop t.heap with
  | Some ev ->
      t.clock <- ev.time;
      t.dispatched <- t.dispatched + 1;
      ev.thunk ();
      run t
  | None -> ()

let pending t = Heap.length t.heap
