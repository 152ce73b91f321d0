module Sched = Enoki.Schedulable
module Q = Ds.Pid_fifo
module Heap = Ds.Pid_heap

type mode = Fifo | Vtime

type entry = { pid : int; token : Sched.t; vtime : int; seq : int; inserted_at : int }

(* Entries live in a {!Ds.Pid_fifo} slot pool holding their tokens, with
   per-slot columns for the rest.  A FIFO queue's order is the pool's own
   list order; a vtime queue orders its slots in a heap keyed by
   (vtime, insertion seq) — the seq makes equal-vtime consumption stable
   FIFO, mirroring how the kernel's vtime DSQs are rbtree-backed while FIFO
   DSQs are lists.  The pool's pid index finds a task's entry in O(1). *)
type t = {
  id : int; (* [Trace.Event.dsq_index name] *)
  mode : mode;
  pool : Sched.t Q.t;
  heap : Heap.t; (* Vtime only *)
  mutable vtime : int array; (* slot -> vtime *)
  mutable seq_of : int array; (* slot -> insertion seq *)
  mutable stamp : int array; (* slot -> simulated ns at first insert *)
  mutable hpos : int array; (* slot -> heap position *)
  lock : Enoki.Lock.t;
  now : unit -> int;
  observe_wait : int -> unit;
  trace : cpu:int -> Trace.Event.tag -> int -> int -> int -> unit;
  mutable seq : int;
  mutable inserts : int;
  mutable consumes : int;
  (* the entry a silent move carries between the source queue's critical
     section and the destination's *)
  mutable out_pid : int;
  mutable out_token : Sched.t;
  mutable out_vtime : int;
  mutable out_seq : int;
  mutable out_stamp : int;
}

let dispatch_latency_metric = "dsq_dispatch_latency_ns"

let create ?(mode = Fifo) (ctx : Enoki.Ctx.t) name =
  let observe_wait =
    match ctx.registry with
    | None -> fun _ -> ()
    | Some reg ->
      Metrics.Registry.observe
        (Metrics.Registry.histogram reg
           ~help:"enqueue-to-dispatch wait across all dispatch queues (ns)"
           dispatch_latency_metric)
  in
  let t =
    {
      id = Trace.Event.dsq_index name;
      mode;
      pool = Q.create ~dummy:Sched.none;
      heap = Heap.create ();
      vtime = [||];
      seq_of = [||];
      stamp = [||];
      hpos = [||];
      lock = Enoki.Lock.create ctx.locks;
      now = ctx.now;
      observe_wait;
      trace = ctx.trace_packed;
      seq = 0;
      inserts = 0;
      consumes = 0;
      out_pid = -1;
      out_token = Sched.none;
      out_vtime = 0;
      out_seq = 0;
      out_stamp = 0;
    }
  in
  (* depth probes read at sample/export time without taking the lock, so an
     attached registry leaves the record log untouched *)
  (match ctx.registry with
  | Some reg ->
    Metrics.Registry.gauge_probe reg ~help:"tasks queued in this dispatch queue"
      ("dsq_depth_" ^ name) (fun () -> float_of_int (Q.length t.pool))
  | None -> ());
  t

let id t = t.id

let length t = Q.length t.pool

let is_empty t = Q.is_empty t.pool

let inserts t = t.inserts

let consumes t = t.consumes

(* Queue an entry: at the back, or at the front (a vtime queue orders by
   its key either way). *)
let push t ~front pid token ~vtime ~seq ~stamp =
  if front then Q.push_front t.pool pid token else Q.push_back t.pool pid token;
  let e = if front then Q.head t.pool else Q.tail t.pool in
  let cap = Q.capacity t.pool in
  if cap > Array.length t.vtime then begin
    t.vtime <- Ds.Column.grow t.vtime cap 0;
    t.seq_of <- Ds.Column.grow t.seq_of cap 0;
    t.stamp <- Ds.Column.grow t.stamp cap 0;
    t.hpos <- Ds.Column.grow t.hpos cap (-1)
  end;
  t.vtime.(e) <- vtime;
  t.seq_of.(e) <- seq;
  t.stamp.(e) <- stamp;
  match t.mode with
  | Vtime -> Heap.add t.heap ~key:t.vtime ~tie:t.seq_of ~pos:t.hpos e
  | Fifo -> ()

let take t e =
  (match t.mode with
  | Vtime -> Heap.remove t.heap ~key:t.vtime ~tie:t.seq_of ~pos:t.hpos e
  | Fifo -> ());
  Q.take t.pool e

let head t = match t.mode with Fifo -> Q.head t.pool | Vtime -> Heap.top t.heap

(* (vtime, seq) order between two slots *)
let before t a b =
  t.vtime.(a) < t.vtime.(b) || (t.vtime.(a) = t.vtime.(b) && t.seq_of.(a) < t.seq_of.(b))

let licenses t e cpu = Sched.cpu (Q.value t.pool e) = cpu

(* The first entry in consumption order whose token licenses [cpu], or -1:
   a walk of the list, or a scan of the heap's slots keeping the least
   (vtime, seq) — the entry an in-order walk would meet first. *)
let rec walk_for t cpu e = if e < 0 || licenses t e cpu then e else walk_for t cpu (Q.next t.pool e)

let first_for t cpu =
  match t.mode with
  | Fifo -> walk_for t cpu (Q.head t.pool)
  | Vtime ->
    let best = ref (-1) in
    for i = 0 to Heap.length t.heap - 1 do
      let e = Heap.nth t.heap i in
      if licenses t e cpu && (!best < 0 || before t e !best) then best := e
    done;
    !best

(* The pid's first entry in consumption order, or -1. *)
let first_of t pid =
  let e = Q.find t.pool pid in
  match t.mode with
  | Fifo -> e
  | Vtime ->
    if e < 0 || Q.count t.pool pid = 1 then e
    else begin
      (* queued twice: the least (vtime, seq) among its entries *)
      let best = ref e in
      for i = 0 to Heap.length t.heap - 1 do
        let x = Heap.nth t.heap i in
        if Q.pid t.pool x = pid && before t x !best then best := x
      done;
      !best
    end

let insert_locked t vtime token () () =
  let pid = Sched.pid token in
  push t ~front:false pid token ~vtime ~seq:t.seq ~stamp:(t.now ());
  t.seq <- t.seq + 1;
  t.inserts <- t.inserts + 1;
  t.trace ~cpu:(Sched.cpu token) Trace.Event.T_dsq_insert t.id pid 0

let insert t ~vtime token = Enoki.Lock.locked t.lock insert_locked t vtime token () ()

let consume_locked t () () () () =
  let e = head t in
  if e < 0 then Sched.none
  else begin
    let pid = Q.pid t.pool e and stamp = t.stamp.(e) in
    let token = take t e in
    t.consumes <- t.consumes + 1;
    let wait = max 0 (t.now () - stamp) in
    t.observe_wait wait;
    t.trace ~cpu:(Sched.cpu token) Trace.Event.T_dsq_consume t.id pid wait;
    token
  end

let consume t = Enoki.Lock.locked t.lock consume_locked t () () () ()

let peek t =
  let e = head t in
  if e < 0 then Sched.none else Q.value t.pool e

(* Silent movement for [Dsq_sched]: a shared-to-local move and a
   balance-time migration are internal queue transfers, not dispatches, so
   they keep the original stamp (the latency histogram measures enqueue to
   final consume) and emit no trace event.  Each takes the source queue's
   lock to unqueue the entry into its [out_*] fields, then the
   destination's to queue it. *)

let take_out t e =
  t.out_pid <- Q.pid t.pool e;
  t.out_vtime <- t.vtime.(e);
  t.out_seq <- t.seq_of.(e);
  t.out_stamp <- t.stamp.(e);
  t.out_token <- take t e

let take_for_locked t cpu () () () =
  let e = first_for t cpu in
  if e >= 0 then take_out t e;
  e >= 0

let remove_locked t pid () () () =
  let e = first_of t pid in
  if e < 0 then Sched.none
  else begin
    take_out t e;
    t.out_token
  end

let remove t ~pid = Enoki.Lock.locked t.lock remove_locked t pid () () ()

(* Queue [src]'s outgoing entry in [t], holding [token]: at the back with a
   fresh seq, or at the front keeping its seq (so a vtime entry keeps its
   place). *)
let put_locked t (src : t) token front () =
  let seq = if front then src.out_seq else t.seq in
  push t ~front src.out_pid token ~vtime:src.out_vtime ~seq ~stamp:src.out_stamp;
  if not front then t.seq <- t.seq + 1

let move_for t ~cpu ~into =
  if Enoki.Lock.locked t.lock take_for_locked t cpu () () () then begin
    Enoki.Lock.locked into.lock put_locked into t t.out_token false ();
    t.out_pid
  end
  else -1

let requeue t ~pid token ~into ~front =
  let old = remove t ~pid in
  if not (Sched.is_none old) then Enoki.Lock.locked into.lock put_locked into t token front ();
  old

let to_list t =
  let entry e : entry =
    {
      pid = Q.pid t.pool e;
      token = Q.value t.pool e;
      vtime = t.vtime.(e);
      seq = t.seq_of.(e);
      inserted_at = t.stamp.(e);
    }
  in
  match t.mode with
  | Fifo ->
    let rec walk e acc = if e < 0 then List.rev acc else walk (Q.next t.pool e) (entry e :: acc) in
    walk (Q.head t.pool) []
  | Vtime ->
    List.init (Heap.length t.heap) (fun i -> entry (Heap.nth t.heap i))
    |> List.sort (fun (a : entry) (b : entry) -> compare (a.vtime, a.seq) (b.vtime, b.seq))

module Private = struct
  let inserts = inserts

  let consumes = consumes

  let to_list = to_list
end
