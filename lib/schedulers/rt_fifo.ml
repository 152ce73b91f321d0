module Sched = Enoki.Schedulable
module Q = Ds.Pid_fifo
module Heap = Ds.Pid_heap

(* Waiting tasks are entries of one {!Ds.Pid_fifo} slot pool holding their
   tokens; each cpu's entries sit in a heap ordered by (priority at
   enqueue, arrival sequence).  Sequence numbers are unique, so an ent's
   [key_seq] names the pid's latest entry (-1 = none). *)
type ent = { mutable prio : int; mutable key_seq : int }

type t = {
  ctx : Enoki.Ctx.t;
  pool : Sched.t Q.t;
  heaps : Heap.t array; (* per-cpu *)
  mutable sprio : int array; (* slot -> priority it was queued at *)
  mutable sseq : int array; (* slot -> arrival sequence *)
  mutable spos : int array; (* slot -> heap position *)
  mutable scpu : int array; (* slot -> the cpu whose heap holds it *)
  ents : (int, ent) Hashtbl.t;
  run_pid : int array; (* per-cpu running pid, -1 = none *)
  run_prio : int array;
  mutable seq : int;
  lock : Enoki.Lock.t;
}

include Enoki.Sched_trait.Defaults (struct type nonrec t = t end)

let name = "rt-fifo"

let create (ctx : Enoki.Ctx.t) =
  {
    ctx;
    pool = Q.create ~dummy:Sched.none;
    heaps = Array.init ctx.nr_cpus (fun _ -> Heap.create ());
    sprio = [||];
    sseq = [||];
    spos = [||];
    scpu = [||];
    ents = Hashtbl.create 64;
    run_pid = Array.make ctx.nr_cpus (-1);
    run_prio = Array.make ctx.nr_cpus 0;
    seq = 0;
    lock = Enoki.Lock.create ctx.locks;
  }

let get_policy t = t.ctx.policy

(* [Hashtbl.find] rather than [find_opt]: a lookup boxes nothing *)
let ent_of t pid ~prio =
  match Hashtbl.find t.ents pid with
  | e -> e
  | exception Not_found ->
    let e = { prio; key_seq = -1 } in
    Hashtbl.replace t.ents pid e;
    e

let enqueue t ~cpu pid sched =
  let ent = ent_of t pid ~prio:0 in
  t.seq <- t.seq + 1;
  ent.key_seq <- t.seq;
  Q.push_back t.pool pid sched;
  let e = Q.tail t.pool in
  let cap = Q.capacity t.pool in
  if cap > Array.length t.sprio then begin
    t.sprio <- Ds.Column.grow t.sprio cap 0;
    t.sseq <- Ds.Column.grow t.sseq cap 0;
    t.spos <- Ds.Column.grow t.spos cap (-1);
    t.scpu <- Ds.Column.grow t.scpu cap 0
  end;
  t.sprio.(e) <- ent.prio;
  t.sseq.(e) <- t.seq;
  t.scpu.(e) <- cpu;
  Heap.add t.heaps.(cpu) ~key:t.sprio ~tie:t.sseq ~pos:t.spos e;
  (* strict preemption: an urgent arrival kicks a less urgent runner *)
  if t.run_pid.(cpu) >= 0 && ent.prio < t.run_prio.(cpu) then t.ctx.resched ~cpu

let unqueue t e =
  Heap.remove t.heaps.(t.scpu.(e)) ~key:t.sprio ~tie:t.sseq ~pos:t.spos e;
  Q.take t.pool e

let rec scan_entry t pid seq e =
  if e < 0 then -1
  else if Q.pid t.pool e = pid && t.sseq.(e) = seq then e
  else scan_entry t pid seq (Q.next t.pool e)

(* the pid's entry with sequence [seq], or -1 *)
let entry t pid seq = scan_entry t pid seq (Q.find t.pool pid)

let remove t pid =
  match Hashtbl.find t.ents pid with
  | ent when ent.key_seq >= 0 ->
    let e = entry t pid ent.key_seq in
    ent.key_seq <- -1;
    if e < 0 then Sched.none else unqueue t e
  | _ | (exception Not_found) -> Sched.none

let clear_running t pid =
  for cpu = 0 to Array.length t.run_pid - 1 do
    if t.run_pid.(cpu) = pid then t.run_pid.(cpu) <- -1
  done


(* Each hook is a closed [*_locked] function of the state and four
   arguments (unused ones are [()]) run through [Enoki.Lock.locked], so no
   closure is built per call. *)

let task_new_locked t pid prio sched () =
  (ent_of t pid ~prio).prio <- prio;
  enqueue t ~cpu:(Sched.cpu sched) pid sched

let task_new t ~pid ~runtime:_ ~prio ~sched =
  Enoki.Lock.locked t.lock task_new_locked t pid prio sched ()

let enqueue_locked t pid sched () () = enqueue t ~cpu:(Sched.cpu sched) pid sched

let task_wakeup t ~pid ~runtime:_ ~waker_cpu:_ ~sched =
  Enoki.Lock.locked t.lock enqueue_locked t pid sched () ()

let task_blocked_locked t pid () () () =
  clear_running t pid;
  ignore (remove t pid)

let task_blocked t ~pid ~runtime:_ ~cpu:_ =
  Enoki.Lock.locked t.lock task_blocked_locked t pid () () ()

let requeue_locked t pid sched () () =
  clear_running t pid;
  ignore (remove t pid);
  enqueue t ~cpu:(Sched.cpu sched) pid sched

let task_preempt t ~pid ~runtime:_ ~cpu:_ ~sched =
  Enoki.Lock.locked t.lock requeue_locked t pid sched () ()

let task_yield = task_preempt

let task_departed_locked t pid () () () =
  clear_running t pid;
  let tok = remove t pid in
  Hashtbl.remove t.ents pid;
  tok

let task_dead t ~pid = ignore (Enoki.Lock.locked t.lock task_departed_locked t pid () () ())

let task_departed t ~pid ~cpu:_ = Enoki.Lock.locked t.lock task_departed_locked t pid () () ()

(* lowest-priority-pressure cpu: idle first, else the one whose runner is
   least urgent *)
let score t c = if t.run_pid.(c) >= 0 then t.run_prio.(c) else max_int

let rec first_idle t = function
  | [] -> -1
  | c :: rest -> if t.run_pid.(c) < 0 then c else first_idle t rest

let rec least_urgent t best = function
  | [] -> best
  | c :: rest -> least_urgent t (if score t c > score t best then c else best) rest

let select_task_rq_locked t waker_cpu allowed () () =
  let c = first_idle t allowed in
  if c >= 0 then c
  else match allowed with [] -> waker_cpu | c0 :: _ -> least_urgent t c0 allowed

let select_task_rq t ~pid:_ ~waker_cpu ~allowed =
  Enoki.Lock.locked t.lock select_task_rq_locked t waker_cpu allowed () ()

let pick_next_task_locked t cpu curr () () =
  let e = Heap.top t.heaps.(cpu) in
  if e >= 0 then begin
    let pid = Q.pid t.pool e and prio = t.sprio.(e) in
    let sched = unqueue t e in
    (match Hashtbl.find t.ents pid with ent -> ent.key_seq <- -1 | exception Not_found -> ());
    t.run_pid.(cpu) <- pid;
    t.run_prio.(cpu) <- prio;
    sched
  end
  else begin
    t.run_pid.(cpu) <- Sched.pid curr;
    if not (Sched.is_none curr) then t.run_prio.(cpu) <- 0;
    curr
  end

let pick_next_task t ~cpu ~curr ~curr_runtime:_ =
  Enoki.Lock.locked t.lock pick_next_task_locked t cpu curr () ()

let pnt_err t ~cpu:_ ~pid ~err:_ ~sched =
  if not (Sched.is_none sched) then Enoki.Lock.locked t.lock enqueue_locked t pid sched () ()

(* pull the most urgent waiter stuck behind a busy cpu *)
let balance_locked t cpu () () () =
  if t.run_pid.(cpu) >= 0 || Heap.length t.heaps.(cpu) > 0 then -1
  else begin
    let best = ref (-1) in
    for other = 0 to Array.length t.heaps - 1 do
      let e = Heap.top t.heaps.(other) in
      if other <> cpu && t.run_pid.(other) >= 0 && e >= 0
         && (!best < 0 || t.sprio.(e) < t.sprio.(!best))
      then best := e
    done;
    if !best < 0 then -1 else Q.pid t.pool !best
  end

let balance t ~cpu = Enoki.Lock.locked t.lock balance_locked t cpu () () ()

let migrate_task_rq_locked t pid sched () () =
  let old = remove t pid in
  enqueue t ~cpu:(Sched.cpu sched) pid sched;
  old

let migrate_task_rq t ~pid ~sched =
  Enoki.Lock.locked t.lock migrate_task_rq_locked t pid sched () ()

(* no time slicing: the tick only matters if a more urgent task waits *)
let task_tick_locked t cpu queued () () =
  let e = Heap.top t.heaps.(cpu) in
  if queued && t.run_pid.(cpu) >= 0 && e >= 0 && t.sprio.(e) < t.run_prio.(cpu) then
    t.ctx.resched ~cpu

let task_tick t ~cpu ~queued = Enoki.Lock.locked t.lock task_tick_locked t cpu queued () ()

let task_prio_changed t ~pid ~prio =
  Enoki.Lock.with_lock t.lock (fun () ->
      match Hashtbl.find_opt t.ents pid with
      | Some ent when ent.key_seq >= 0 -> (
        (* re-queue under the new priority *)
        let sched = remove t pid in
        ent.prio <- prio;
        if not (Sched.is_none sched) then enqueue t ~cpu:(Sched.cpu sched) pid sched)
      | Some ent -> ent.prio <- prio
      | None -> ())

(* live upgrade: the queues and per-pid columns move verbatim *)
type Enoki.Upgrade.transfer += Rt_state of t

let reregister_prepare t = Some (Rt_state t)

let reregister_init (ctx : Enoki.Ctx.t) transfer =
  match transfer with
  | None -> create ctx
  | Some (Rt_state old) -> { old with ctx; lock = Enoki.Lock.create ctx.locks }
  | Some _ -> raise (Enoki.Upgrade.Incompatible "rt-fifo: unrecognised transfer state")
