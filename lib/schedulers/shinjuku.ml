module Sched = Enoki.Schedulable

let default_slice = Kernsim.Time.us 10

(* The global FCFS queue holds (pid, token) entries; tokens are immediate,
   so no hook allocates. *)
module Q = Ds.Pid_fifo

type t = {
  ctx : Enoki.Ctx.t;
  slice : Kernsim.Time.ns;
  q : Sched.t Q.t;
  running : int array; (* per-cpu running pid (our picks), -1 = none *)
  mutable rr_cpu : int; (* round-robin pointer for initial placement *)
  lock : Enoki.Lock.t;
}

include Enoki.Sched_trait.Defaults (struct type nonrec t = t end)

let name = "shinjuku"

let make (ctx : Enoki.Ctx.t) ~slice =
  {
    ctx;
    slice;
    q = Q.create ~dummy:Sched.none;
    running = Array.make ctx.nr_cpus (-1);
    rr_cpu = 0;
    lock = Enoki.Lock.create ();
  }

let create ctx = make ctx ~slice:default_slice

let get_policy t = t.ctx.policy

let on_cpu q e cpu = Sched.cpu (Q.value q e) = cpu

let rec scan_cpu q cpu e = if e < 0 || on_cpu q e cpu then e else scan_cpu q cpu (Q.next q e)

(* ---------- trait implementation ---------- *)

(* Each hook is a closed [*_locked] function of the state and four
   arguments (unused ones are [()]) run through [Enoki.Lock.locked], so no
   closure is built per call. *)

(* every operation re-arms the preemption timer, as §5.2 notes ("our
   version of the Shinjuku scheduler starts a reschedule timer on every
   operation") *)
let arm t ~cpu = t.ctx.set_timer ~cpu t.slice

let stopped t ~pid ~cpu = if t.running.(cpu) = pid then t.running.(cpu) <- -1

let task_new_locked t pid sched () () = Q.push_back t.q pid sched

let task_new t ~pid ~runtime:_ ~prio:_ ~sched =
  Enoki.Lock.locked t.lock task_new_locked t pid sched () ()

let task_wakeup_locked t pid waker_cpu sched () =
  Q.push_back t.q pid sched;
  arm t ~cpu:waker_cpu

let task_wakeup t ~pid ~runtime:_ ~waker_cpu ~sched =
  Enoki.Lock.locked t.lock task_wakeup_locked t pid waker_cpu sched ()

let task_blocked_locked t pid cpu () () =
  stopped t ~pid ~cpu;
  ignore (Q.remove t.q pid)

let task_blocked t ~pid ~runtime:_ ~cpu =
  Enoki.Lock.locked t.lock task_blocked_locked t pid cpu () ()

let requeue_locked t pid cpu sched () =
  stopped t ~pid ~cpu;
  ignore (Q.remove t.q pid);
  Q.push_back t.q pid sched

let requeue t ~pid ~runtime:_ ~cpu ~sched =
  Enoki.Lock.locked t.lock requeue_locked t pid cpu sched ()

let task_preempt = requeue

let task_yield = requeue

let task_dead_locked t pid () () () =
  for cpu = 0 to Array.length t.running - 1 do
    stopped t ~pid ~cpu
  done;
  ignore (Q.remove t.q pid)

let task_dead t ~pid = Enoki.Lock.locked t.lock task_dead_locked t pid () () ()

let task_departed_locked t pid cpu () () =
  stopped t ~pid ~cpu;
  Q.remove t.q pid

let task_departed t ~pid ~cpu = Enoki.Lock.locked t.lock task_departed_locked t pid cpu () ()

(* the first allowed cpu with nothing running, or -1 *)
let rec idle_cpu t = function [] -> -1 | c :: tl -> if t.running.(c) < 0 then c else idle_cpu t tl

(* initial/wakeup run-queue: prefer an allowed cpu with nothing running,
   else round-robin the allowed set; the global FCFS queue plus
   balance-time migration does the real placement *)
let select_task_rq_locked t allowed () () () =
  let c = idle_cpu t allowed in
  if c >= 0 then c
  else begin
    t.rr_cpu <- t.rr_cpu + 1;
    match allowed with [] -> 0 | l -> List.nth l (t.rr_cpu mod List.length l)
  end

let select_task_rq t ~pid:_ ~waker_cpu:_ ~allowed =
  Enoki.Lock.locked t.lock select_task_rq_locked t allowed () () ()

(* centralized FCFS: a cpu picking work takes the queue head; if the head
   belongs to another run-queue, balance asks the kernel to migrate it here
   first *)
let balance_locked t cpu () () () =
  let q = t.q in
  if t.running.(cpu) >= 0 || Q.is_empty q then -1
  else
    let sched = Q.value q (Q.head q) in
    if Sched.cpu sched <> cpu && t.running.(Sched.cpu sched) >= 0 then
      (* the head is stuck behind a busy core; pull it here *)
      Q.pid q (Q.head q)
    else -1

let balance t ~cpu = Enoki.Lock.locked t.lock balance_locked t cpu () () ()

let migrate_task_rq_locked t pid sched () () =
  let old = Q.remove t.q pid in
  (* keep queue position at the front: migration happens for the head *)
  if Sched.is_none old then Q.push_back t.q pid sched else Q.push_front t.q pid sched;
  old

let migrate_task_rq t ~pid ~sched =
  Enoki.Lock.locked t.lock migrate_task_rq_locked t pid sched () ()

let pick_next_task_locked t cpu curr () () =
  arm t ~cpu;
  (* take the first queued task already on this run-queue *)
  let e = scan_cpu t.q cpu (Q.head t.q) in
  if e >= 0 then begin
    let pid = Q.pid t.q e in
    let picked = Q.take t.q e in
    t.running.(cpu) <- pid;
    if (not (Sched.is_none curr)) && Sched.pid curr <> pid then
      Q.push_back t.q (Sched.pid curr) curr;
    picked
  end
  else begin
    t.running.(cpu) <- Sched.pid curr;
    curr
  end

let pick_next_task t ~cpu ~curr ~curr_runtime:_ =
  Enoki.Lock.locked t.lock pick_next_task_locked t cpu curr () ()

let pnt_err_locked t pid sched () () = Q.push_back t.q pid sched

let pnt_err t ~cpu:_ ~pid ~err:_ ~sched =
  if not (Sched.is_none sched) then Enoki.Lock.locked t.lock pnt_err_locked t pid sched () ()

(* the preemption timer: if anything is waiting, preempt the current task *)
let task_tick_locked t cpu queued () () =
  if queued && not (Q.is_empty t.q) then t.ctx.resched ~cpu;
  if queued then arm t ~cpu

let task_tick t ~cpu ~queued = Enoki.Lock.locked t.lock task_tick_locked t cpu queued () ()

type Enoki.Upgrade.transfer += Shinjuku_state of Sched.t Q.t * int array

let reregister_prepare t = Some (Shinjuku_state (t.q, t.running))

let reregister_init (ctx : Enoki.Ctx.t) transfer =
  match transfer with
  | None -> create ctx
  | Some (Shinjuku_state (q, running)) -> { (create ctx) with q; running }
  | Some _ -> raise (Enoki.Upgrade.Incompatible "shinjuku: unrecognised transfer state")
