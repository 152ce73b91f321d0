module Sched = Enoki.Schedulable

let default_slice = Kernsim.Time.us 10

(* The global FCFS queue: an intrusive doubly linked list over entry slots
   kept in int arrays, with free slots chained through [next].  An entry
   holds a pid and its token: the [Some] stored at enqueue is the one the
   hooks hand back, so a queued task costs one option box and no hook
   allocates anything else.

   A pid normally has at most one entry, and then [at.(pid)] names it, so
   removing a pid is O(1).  A module fed wrong replies (fault injection)
   can be woken while still queued, and that queues the pid twice, exactly
   as a deque of (pid, token) pairs would; [at] is then -1 and removal
   falls back to a scan from the head for the pid's oldest entry. *)
type fcfs = {
  mutable pid : int array;  (* entry -> pid *)
  mutable tok : Sched.t option array;  (* entry -> token *)
  mutable next : int array;  (* -1 = none *)
  mutable prev : int array;
  mutable head : int;
  mutable tail : int;
  mutable free : int;
  mutable len : int;
  mutable count : int array;  (* pid -> entries queued *)
  mutable at : int array;  (* pid -> its entry when it has exactly one, else -1 *)
}

type t = {
  ctx : Enoki.Ctx.t;
  slice : Kernsim.Time.ns;
  q : fcfs;
  running : int array; (* per-cpu running pid (our picks), -1 = none *)
  mutable rr_cpu : int; (* round-robin pointer for initial placement *)
  lock : Enoki.Lock.t;
}

include Enoki.Sched_trait.Defaults (struct type nonrec t = t end)

let name = "shinjuku"

let fcfs () =
  {
    pid = [||];
    tok = [||];
    next = [||];
    prev = [||];
    head = -1;
    tail = -1;
    free = -1;
    len = 0;
    count = [||];
    at = [||];
  }

let make (ctx : Enoki.Ctx.t) ~slice =
  {
    ctx;
    slice;
    q = fcfs ();
    running = Array.make ctx.nr_cpus (-1);
    rr_cpu = 0;
    lock = Enoki.Lock.create ~name:"shinjuku-q" ();
  }

let create ctx = make ctx ~slice:default_slice

let get_policy t = t.ctx.policy

(* ---------- the FCFS list ---------- *)

let grow src n fill =
  let dst = Array.make n fill in
  Array.blit src 0 dst 0 (Array.length src);
  dst

let tracked q pid = pid >= 0 && pid < Array.length q.count

let track q pid =
  let len = Array.length q.count in
  if pid >= len then begin
    let n = max (pid + 1) (max 16 (2 * len)) in
    q.count <- grow q.count n 0;
    q.at <- grow q.at n (-1)
  end

(* a free entry slot, doubling the pool when none is left *)
let alloc q =
  if q.free < 0 then begin
    let len = Array.length q.pid in
    let n = max 16 (2 * len) in
    q.pid <- grow q.pid n (-1);
    q.tok <- grow q.tok n None;
    q.next <- grow q.next n (-1);
    q.prev <- grow q.prev n (-1);
    for e = n - 1 downto len do
      q.next.(e) <- q.free;
      q.free <- e
    done
  end;
  let e = q.free in
  q.free <- q.next.(e);
  e

let fill q e pid held =
  q.pid.(e) <- pid;
  q.tok.(e) <- held;
  q.len <- q.len + 1;
  if pid >= 0 then begin
    track q pid;
    q.count.(pid) <- q.count.(pid) + 1;
    q.at.(pid) <- (if q.count.(pid) = 1 then e else -1)
  end

let push_back q pid held =
  let e = alloc q in
  fill q e pid held;
  q.next.(e) <- -1;
  q.prev.(e) <- q.tail;
  if q.tail >= 0 then q.next.(q.tail) <- e else q.head <- e;
  q.tail <- e

let push_front q pid held =
  let e = alloc q in
  fill q e pid held;
  q.prev.(e) <- -1;
  q.next.(e) <- q.head;
  if q.head >= 0 then q.prev.(q.head) <- e else q.tail <- e;
  q.head <- e

(* Unlink entry [e], free its slot and hand back its token. *)
let take q e =
  let n = q.next.(e) and p = q.prev.(e) in
  if p >= 0 then q.next.(p) <- n else q.head <- n;
  if n >= 0 then q.prev.(n) <- p else q.tail <- p;
  let pid = q.pid.(e) and held = q.tok.(e) in
  if tracked q pid then begin
    q.count.(pid) <- q.count.(pid) - 1;
    q.at.(pid) <- -1
  end;
  q.tok.(e) <- None;
  q.next.(e) <- q.free;
  q.free <- e;
  q.len <- q.len - 1;
  held

let rec scan_pid q pid e = if e < 0 || q.pid.(e) = pid then e else scan_pid q pid q.next.(e)

(* the pid's oldest entry, or -1 *)
let find q pid =
  if pid < 0 then scan_pid q pid q.head
  else if (not (tracked q pid)) || q.count.(pid) = 0 then -1
  else if q.at.(pid) >= 0 then q.at.(pid)
  else scan_pid q pid q.head

let remove q pid =
  let e = find q pid in
  if e < 0 then None else take q e

let on_cpu q e cpu = match q.tok.(e) with Some s -> Sched.cpu s = cpu | None -> false

let rec scan_cpu q cpu e = if e < 0 || on_cpu q e cpu then e else scan_cpu q cpu q.next.(e)

(* ---------- trait implementation ---------- *)

(* Each hook is a closed [*_locked] function of the state and four
   arguments (unused ones are [()]) run through [Enoki.Lock.locked], so no
   closure is built per call. *)

(* every operation re-arms the preemption timer, as §5.2 notes ("our
   version of the Shinjuku scheduler starts a reschedule timer on every
   operation") *)
let arm t ~cpu = t.ctx.set_timer ~cpu t.slice

let stopped t ~pid ~cpu = if t.running.(cpu) = pid then t.running.(cpu) <- -1

let task_new_locked t pid sched () () = push_back t.q pid (Some sched)

let task_new t ~pid ~runtime:_ ~prio:_ ~sched =
  Enoki.Lock.locked t.lock task_new_locked t pid sched () ()

let task_wakeup_locked t pid waker_cpu sched () =
  push_back t.q pid (Some sched);
  arm t ~cpu:waker_cpu

let task_wakeup t ~pid ~runtime:_ ~waker_cpu ~sched =
  Enoki.Lock.locked t.lock task_wakeup_locked t pid waker_cpu sched ()

let task_blocked_locked t pid cpu () () =
  stopped t ~pid ~cpu;
  ignore (remove t.q pid)

let task_blocked t ~pid ~runtime:_ ~cpu =
  Enoki.Lock.locked t.lock task_blocked_locked t pid cpu () ()

let requeue_locked t pid cpu sched () =
  stopped t ~pid ~cpu;
  ignore (remove t.q pid);
  push_back t.q pid (Some sched)

let requeue t ~pid ~runtime:_ ~cpu ~sched =
  Enoki.Lock.locked t.lock requeue_locked t pid cpu sched ()

let task_preempt = requeue

let task_yield = requeue

let task_dead_locked t pid () () () =
  for cpu = 0 to Array.length t.running - 1 do
    stopped t ~pid ~cpu
  done;
  ignore (remove t.q pid)

let task_dead t ~pid = Enoki.Lock.locked t.lock task_dead_locked t pid () () ()

let task_departed_locked t pid cpu () () =
  stopped t ~pid ~cpu;
  remove t.q pid

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
  if t.running.(cpu) >= 0 || q.head < 0 then None
  else
    match q.tok.(q.head) with
    | Some sched when Sched.cpu sched <> cpu && t.running.(Sched.cpu sched) >= 0 ->
      (* the head is stuck behind a busy core; pull it here *)
      Some q.pid.(q.head)
    | Some _ | None -> None

let balance t ~cpu = Enoki.Lock.locked t.lock balance_locked t cpu () () ()

let migrate_task_rq_locked t pid sched () () =
  match remove t.q pid with
  | Some _ as old ->
    (* keep queue position at the front: migration happens for the head *)
    push_front t.q pid (Some sched);
    old
  | None ->
    push_back t.q pid (Some sched);
    None

let migrate_task_rq t ~pid ~sched =
  Enoki.Lock.locked t.lock migrate_task_rq_locked t pid sched () ()

let pick_next_task_locked t cpu curr () () =
  arm t ~cpu;
  (* take the first queued task already on this run-queue *)
  let e = scan_cpu t.q cpu t.q.head in
  if e >= 0 then begin
    let pid = t.q.pid.(e) in
    let picked = take t.q e in
    t.running.(cpu) <- pid;
    (match curr with
    | Some c when Sched.pid c <> pid -> push_back t.q (Sched.pid c) curr
    | Some _ | None -> ());
    picked
  end
  else begin
    t.running.(cpu) <- (match curr with Some c -> Sched.pid c | None -> -1);
    curr
  end

let pick_next_task t ~cpu ~curr ~curr_runtime:_ =
  Enoki.Lock.locked t.lock pick_next_task_locked t cpu curr () ()

let pnt_err_locked t pid held () () = push_back t.q pid held

let pnt_err t ~cpu:_ ~pid ~err:_ ~sched =
  match sched with
  | Some _ -> Enoki.Lock.locked t.lock pnt_err_locked t pid sched () ()
  | None -> ()

(* the preemption timer: if anything is waiting, preempt the current task *)
let task_tick_locked t cpu queued () () =
  if queued && t.q.len > 0 then t.ctx.resched ~cpu;
  if queued then arm t ~cpu

let task_tick t ~cpu ~queued = Enoki.Lock.locked t.lock task_tick_locked t cpu queued () ()

type Enoki.Upgrade.transfer += Shinjuku_state of fcfs * int array

let reregister_prepare t = Some (Shinjuku_state (t.q, t.running))

let reregister_init (ctx : Enoki.Ctx.t) transfer =
  match transfer with
  | None -> create ctx
  | Some (Shinjuku_state (q, running)) -> { (create ctx) with q; running }
  | Some _ -> raise (Enoki.Upgrade.Incompatible "shinjuku: unrecognised transfer state")

let queue_depth t = t.q.len
