module Sched = Enoki.Schedulable
module Q = Ds.Pid_fifo
module Heap = Ds.Pid_heap

let default_relative_deadline = Kernsim.Time.ms 10

(* The global EDF order of waiting tasks: one entry per (deadline, pid)
   binding, its token in a {!Ds.Pid_fifo} slot pool and the slot in a heap
   ordered by (deadline, pid).  Queuing a binding that exists replaces its
   token.  A pid normally has one binding; a wakeup while still queued
   (fault injection) opens a second one under the fresh deadline.

   Per-pid state is the hinted relative deadline and the absolute deadline
   of the current window. *)
type ent = { mutable relative : int; mutable abs_deadline : int }

type t = {
  ctx : Enoki.Ctx.t;
  pool : Sched.t Q.t;
  heap : Heap.t;
  mutable dl : int array; (* slot -> absolute deadline *)
  mutable spid : int array; (* slot -> pid *)
  mutable spos : int array; (* slot -> heap position *)
  ents : (int, ent) Hashtbl.t;
  run_pid : int array; (* per-cpu running pid, -1 = none *)
  run_dl : int array; (* and its deadline *)
  lock : Enoki.Lock.t;
}

include Enoki.Sched_trait.Defaults (struct type nonrec t = t end)

let name = "edf"

let create (ctx : Enoki.Ctx.t) =
  {
    ctx;
    pool = Q.create ~dummy:Sched.none;
    heap = Heap.create ();
    dl = [||];
    spid = [||];
    spos = [||];
    ents = Hashtbl.create 64;
    run_pid = Array.make ctx.nr_cpus (-1);
    run_dl = Array.make ctx.nr_cpus 0;
    lock = Enoki.Lock.create ();
  }

let get_policy t = t.ctx.policy

(* [Hashtbl.find] rather than [find_opt]: a lookup boxes nothing *)
let ent_of t pid =
  match Hashtbl.find t.ents pid with
  | e -> e
  | exception Not_found ->
    let e = { relative = default_relative_deadline; abs_deadline = max_int } in
    Hashtbl.replace t.ents pid e;
    e

let rec scan_binding t pid deadline e =
  if e < 0 then -1
  else if Q.pid t.pool e = pid && t.dl.(e) = deadline then e
  else scan_binding t pid deadline (Q.next t.pool e)

(* the slot binding ([deadline], [pid]), or -1 *)
let binding t pid deadline =
  let e = Q.find t.pool pid in
  if e < 0 || Q.count t.pool pid = 1 then (if e >= 0 && t.dl.(e) = deadline then e else -1)
  else scan_binding t pid deadline e

let unqueue t e =
  Heap.remove t.heap ~key:t.dl ~tie:t.spid ~pos:t.spos e;
  Q.take t.pool e

let enqueue t pid sched ~fresh_deadline =
  let ent = ent_of t pid in
  if fresh_deadline then ent.abs_deadline <- t.ctx.now () + ent.relative;
  let deadline = ent.abs_deadline in
  let e = binding t pid deadline in
  if e >= 0 then Q.set_value t.pool e sched
  else begin
    Q.push_back t.pool pid sched;
    let e = Q.tail t.pool in
    let cap = Q.capacity t.pool in
    if cap > Array.length t.dl then begin
      t.dl <- Ds.Column.grow t.dl cap 0;
      t.spid <- Ds.Column.grow t.spid cap 0;
      t.spos <- Ds.Column.grow t.spos cap (-1)
    end;
    t.dl.(e) <- deadline;
    t.spid.(e) <- pid;
    Heap.add t.heap ~key:t.dl ~tie:t.spid ~pos:t.spos e
  end

let remove t pid =
  match Hashtbl.find t.ents pid with
  | ent ->
    let e = binding t pid ent.abs_deadline in
    if e < 0 then Sched.none else unqueue t e
  | exception Not_found -> Sched.none

let stopped t ~pid ~cpu = if t.run_pid.(cpu) = pid then t.run_pid.(cpu) <- -1


(* Each hook is a closed [*_locked] function of the state and four
   arguments (unused ones are [()]) run through [Enoki.Lock.locked], so no
   closure is built per call. *)

let enqueue_locked t pid sched fresh_deadline () = enqueue t pid sched ~fresh_deadline

(* each wakeup opens a new deadline window *)
let task_new t ~pid ~runtime:_ ~prio:_ ~sched =
  Enoki.Lock.locked t.lock enqueue_locked t pid sched true ()

let task_wakeup t ~pid ~runtime:_ ~waker_cpu:_ ~sched =
  Enoki.Lock.locked t.lock enqueue_locked t pid sched true ()

let task_blocked_locked t pid cpu () () =
  stopped t ~pid ~cpu;
  ignore (remove t pid)

let task_blocked t ~pid ~runtime:_ ~cpu =
  Enoki.Lock.locked t.lock task_blocked_locked t pid cpu () ()

(* preemption keeps the current window: the task goes back in EDF order *)
let requeue_locked t pid cpu sched () =
  stopped t ~pid ~cpu;
  ignore (remove t pid);
  enqueue t pid sched ~fresh_deadline:false

let task_preempt t ~pid ~runtime:_ ~cpu ~sched =
  Enoki.Lock.locked t.lock requeue_locked t pid cpu sched ()

let task_yield = task_preempt

let task_dead_locked t pid () () () =
  for cpu = 0 to Array.length t.run_pid - 1 do
    stopped t ~pid ~cpu
  done;
  ignore (remove t pid);
  Hashtbl.remove t.ents pid

let task_dead t ~pid = Enoki.Lock.locked t.lock task_dead_locked t pid () () ()

let task_departed_locked t pid cpu () () =
  stopped t ~pid ~cpu;
  let tok = remove t pid in
  Hashtbl.remove t.ents pid;
  tok

let task_departed t ~pid ~cpu = Enoki.Lock.locked t.lock task_departed_locked t pid cpu () ()

let rec first_idle t waker_cpu = function
  | [] -> waker_cpu
  | c :: rest -> if t.run_pid.(c) < 0 then c else first_idle t waker_cpu rest

let select_task_rq_locked t waker_cpu allowed () () =
  match allowed with
  | [] -> waker_cpu
  | c0 :: _ ->
    let c = first_idle t (-1) allowed in
    if c >= 0 then c else c0

let select_task_rq t ~pid:_ ~waker_cpu ~allowed =
  Enoki.Lock.locked t.lock select_task_rq_locked t waker_cpu allowed () ()

let on_cpu t e cpu = Sched.cpu (Q.value t.pool e) = cpu

(* (deadline, pid) order between two slots *)
let before t a b = t.dl.(a) < t.dl.(b) || (t.dl.(a) = t.dl.(b) && t.spid.(a) < t.spid.(b))

let pick_next_task_locked t cpu curr () () =
  (* earliest-deadline waiting task that already sits on this rq *)
  let found = ref (-1) in
  for i = 0 to Heap.length t.heap - 1 do
    let e = Heap.nth t.heap i in
    if on_cpu t e cpu && (!found < 0 || before t e !found) then found := e
  done;
  let e = !found in
  if e >= 0 then begin
    let pid = t.spid.(e) and deadline = t.dl.(e) in
    let sched = unqueue t e in
    t.run_pid.(cpu) <- pid;
    t.run_dl.(cpu) <- deadline;
    sched
  end
  else begin
    t.run_pid.(cpu) <- Sched.pid curr;
    if not (Sched.is_none curr) then t.run_dl.(cpu) <- max_int;
    curr
  end

let pick_next_task t ~cpu ~curr ~curr_runtime:_ =
  Enoki.Lock.locked t.lock pick_next_task_locked t cpu curr () ()

let pnt_err t ~cpu:_ ~pid ~err:_ ~sched =
  if not (Sched.is_none sched) then Enoki.Lock.locked t.lock enqueue_locked t pid sched false ()

(* the global head migrates to any cpu running a later deadline or idling
   behind a busy rq, as Shinjuku's balance does for FCFS order *)
let balance_locked t cpu () () () =
  let e = Heap.top t.heap in
  if t.run_pid.(cpu) >= 0 || e < 0 then -1
  else
    let sched = Q.value t.pool e in
    if Sched.cpu sched <> cpu && t.run_pid.(Sched.cpu sched) >= 0 then t.spid.(e) else -1

let balance t ~cpu = Enoki.Lock.locked t.lock balance_locked t cpu () () ()

let migrate_task_rq_locked t pid sched () () =
  let old = remove t pid in
  enqueue t pid sched ~fresh_deadline:false;
  old

let migrate_task_rq t ~pid ~sched =
  Enoki.Lock.locked t.lock migrate_task_rq_locked t pid sched () ()

(* preempt whenever a waiting task's deadline beats the running one's *)
let task_tick_locked t cpu queued () () =
  let e = Heap.top t.heap in
  if queued && t.run_pid.(cpu) >= 0 && e >= 0 && t.dl.(e) < t.run_dl.(cpu) then
    t.ctx.resched ~cpu

let task_tick t ~cpu ~queued = Enoki.Lock.locked t.lock task_tick_locked t cpu queued () ()

let parse_hint t ~pid:_ ~hint =
  match hint with
  | Hints.Deadline { pid; relative } ->
    Enoki.Lock.with_lock t.lock (fun () -> (ent_of t pid).relative <- max 1 relative)
  | _ -> ()

(* live upgrade: the queue and per-pid columns move verbatim *)
type Enoki.Upgrade.transfer += Edf_state of t

let reregister_prepare t = Some (Edf_state t)

let reregister_init (ctx : Enoki.Ctx.t) transfer =
  match transfer with
  | None -> create ctx
  | Some (Edf_state old) -> { old with ctx; lock = Enoki.Lock.create () }
  | Some _ -> raise (Enoki.Upgrade.Incompatible "edf: unrecognised transfer state")

let relative_deadline_of t ~pid =
  match Hashtbl.find_opt t.ents pid with
  | Some e when e.relative <> default_relative_deadline -> Some e.relative
  | Some _ | None -> None

module Private = struct
  let relative_deadline_of = relative_deadline_of
end
