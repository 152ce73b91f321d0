module Sched = Enoki.Schedulable
module Q = Ds.Pid_fifo

type t = {
  ctx : Enoki.Ctx.t;
  queues : Sched.t Q.t array; (* per-cpu FCFS of (pid, token) *)
  running : int array; (* pid running per cpu, by our own picks; -1 = none *)
  lock : Enoki.Lock.t;
}

include Enoki.Sched_trait.Defaults (struct type nonrec t = t end)

let name = "fifo"

let create (ctx : Enoki.Ctx.t) =
  {
    ctx;
    queues = Array.init ctx.nr_cpus (fun _ -> Q.create ~dummy:Sched.none);
    running = Array.make ctx.nr_cpus (-1);
    lock = Enoki.Lock.create ();
  }

let get_policy t = t.ctx.policy

(* Take the pid's oldest entry from every queue (under fault injection a
   pid can sit in two); the token is the last one found. *)
let remove_everywhere t pid =
  let found = ref Sched.none in
  for cpu = 0 to Array.length t.queues - 1 do
    let tok = Q.remove t.queues.(cpu) pid in
    if not (Sched.is_none tok) then found := tok
  done;
  !found

let load t cpu = Q.length t.queues.(cpu) + if t.running.(cpu) < 0 then 0 else 1

(* the first allowed cpu with the fewest queued-or-running tasks *)
let rec shortest t best best_len = function
  | [] -> best
  | cpu :: rest ->
    if cpu >= 0 && cpu < Array.length t.queues && load t cpu < best_len then
      shortest t cpu (load t cpu) rest
    else shortest t best best_len rest

let stopped t ~pid ~cpu = if t.running.(cpu) = pid then t.running.(cpu) <- -1

(* Each hook is a closed [*_locked] function of the state and four
   arguments (unused ones are [()]) run through [Enoki.Lock.locked], so no
   closure is built per call. *)

let select_task_rq_locked t allowed () () () =
  shortest t (match allowed with c :: _ -> c | [] -> 0) max_int allowed

let select_task_rq t ~pid:_ ~waker_cpu:_ ~allowed =
  Enoki.Lock.locked t.lock select_task_rq_locked t allowed () () ()

let enqueue_locked t cpu pid sched () = Q.push_back t.queues.(cpu) pid sched

let enqueue t ~cpu ~pid sched = Enoki.Lock.locked t.lock enqueue_locked t cpu pid sched ()

let task_new t ~pid ~runtime:_ ~prio:_ ~sched = enqueue t ~cpu:(Sched.cpu sched) ~pid sched

let task_wakeup t ~pid ~runtime:_ ~waker_cpu:_ ~sched = enqueue t ~cpu:(Sched.cpu sched) ~pid sched

let task_preempt_locked t pid cpu sched () =
  stopped t ~pid ~cpu;
  Q.push_back t.queues.(cpu) pid sched

let task_preempt t ~pid ~runtime:_ ~cpu ~sched =
  Enoki.Lock.locked t.lock task_preempt_locked t pid cpu sched ()

let task_yield = task_preempt

let task_departed_locked t pid cpu () () =
  stopped t ~pid ~cpu;
  remove_everywhere t pid

let task_blocked t ~pid ~runtime:_ ~cpu =
  ignore (Enoki.Lock.locked t.lock task_departed_locked t pid cpu () ())

let task_dead_locked t pid () () () =
  for cpu = 0 to Array.length t.running - 1 do
    stopped t ~pid ~cpu
  done;
  ignore (remove_everywhere t pid)

let task_dead t ~pid = Enoki.Lock.locked t.lock task_dead_locked t pid () () ()

let task_departed t ~pid ~cpu = Enoki.Lock.locked t.lock task_departed_locked t pid cpu () ()

let pick_next_task_locked t cpu curr () () =
  let q = t.queues.(cpu) in
  if Q.is_empty q then begin
    t.running.(cpu) <- -1;
    curr
  end
  else begin
    let pid = Q.pid q (Q.head q) in
    let picked = Q.pop_front q in
    t.running.(cpu) <- pid;
    (* if the kernel handed us a still-runnable current task, requeue it *)
    if (not (Sched.is_none curr)) && Sched.pid curr <> pid then Q.push_back q (Sched.pid curr) curr;
    picked
  end

let pick_next_task t ~cpu ~curr ~curr_runtime:_ =
  Enoki.Lock.locked t.lock pick_next_task_locked t cpu curr () ()

let pnt_err t ~cpu ~pid ~err:_ ~sched =
  (* ownership of the rejected token returns to us: requeue so the task is
     not lost *)
  if not (Sched.is_none sched) then enqueue t ~cpu ~pid sched

(* the length [other] offers a thief: only a core that cannot drain itself
   promptly gives work away *)
let spare t other =
  let len = Q.length t.queues.(other) in
  if t.running.(other) >= 0 || len >= 2 then len else 0

let balance_locked t cpu () () () =
  if Q.is_empty t.queues.(cpu) && t.running.(cpu) < 0 then begin
    (* steal the oldest task from the longest queue *)
    let longest = ref (-1) and longest_len = ref 0 in
    for other = 0 to Array.length t.queues - 1 do
      if other <> cpu && spare t other > !longest_len then begin
        longest := other;
        longest_len := spare t other
      end
    done;
    if !longest < 0 then -1 else Q.pid t.queues.(!longest) (Q.head t.queues.(!longest))
  end
  else -1

let balance t ~cpu = Enoki.Lock.locked t.lock balance_locked t cpu () () ()

let migrate_task_rq_locked t pid sched () () =
  let old = remove_everywhere t pid in
  Q.push_back t.queues.(Sched.cpu sched) pid sched;
  old

let migrate_task_rq t ~pid ~sched =
  Enoki.Lock.locked t.lock migrate_task_rq_locked t pid sched () ()

(* live upgrade: export the queues verbatim *)
type Enoki.Upgrade.transfer += Fifo_state of Sched.t Q.t array * int array

let reregister_prepare t = Some (Fifo_state (t.queues, t.running))

let reregister_init (ctx : Enoki.Ctx.t) transfer =
  match transfer with
  | None -> create ctx
  | Some (Fifo_state (queues, running)) ->
    { ctx; queues; running; lock = Enoki.Lock.create () }
  | Some _ -> raise (Enoki.Upgrade.Incompatible "fifo: unrecognised transfer state")
