module Sched = Enoki.Schedulable
module Heap = Ds.Pid_heap

let nice_0_load = 1024

let sched_latency = Kernsim.Time.us 6_000

let min_slice = Kernsim.Time.us 750

let wakeup_thresh = Kernsim.Time.us 3_000

(* Per-cpu run-queue: the waiting pids in a min-heap ordered by
   (vruntime, pid); the pid tiebreak makes the order total, so equal
   vruntimes pick deterministically.  [running] is -1 when none of our
   tasks is dispatched on the cpu. *)
type rq = {
  heap : Heap.t;
  mutable min_vruntime : int;
  mutable running : int;
  mutable ticks_since_dispatch : int;
}

(* Entity state lives in pid-indexed arrays (machine pids are small and
   contiguous), grown on the first task rather than at [create].  A pid is
   queued iff [pos.(pid) >= 0], and then [tok.(pid)] holds its token
   ([Sched.none] otherwise), so no hook allocates.
   A pid's vruntime never changes while it is queued: every hook that
   moves it unqueues the pid first. *)
type t = {
  ctx : Enoki.Ctx.t;
  lock : Enoki.Lock.t;
  rqs : rq array;
  mutable present : bool array;
  mutable vruntime : int array;
  mutable weight : int array;
  mutable last_runtime : int array; (* kernel-supplied runtime at last message *)
  mutable cpu : int array; (* the rq the pid was last queued on *)
  mutable pos : int array; (* heap slot, -1 = not queued *)
  mutable tok : Sched.t array;
}

include Enoki.Sched_trait.Defaults (struct type nonrec t = t end)

let name = "wfq"

let create (ctx : Enoki.Ctx.t) =
  {
    ctx;
    lock = Enoki.Lock.create ();
    rqs =
      Array.init ctx.nr_cpus (fun _ ->
          { heap = Heap.create (); min_vruntime = 0; running = -1; ticks_since_dispatch = 0 });
    present = [||];
    vruntime = [||];
    weight = [||];
    last_runtime = [||];
    cpu = [||];
    pos = [||];
    tok = [||];
  }

let get_policy t = t.ctx.policy

let known t pid = pid >= 0 && pid < Array.length t.present && Array.unsafe_get t.present pid

let ensure_cap t pid =
  let len = Array.length t.present in
  if pid >= len then begin
    let n = max (pid + 1) (max 16 (2 * len)) in
    let grow src fill =
      let dst = Array.make n fill in
      Array.blit src 0 dst 0 len;
      dst
    in
    t.present <- grow t.present false;
    t.vruntime <- grow t.vruntime 0;
    t.weight <- grow t.weight 0;
    t.last_runtime <- grow t.last_runtime 0;
    t.cpu <- grow t.cpu 0;
    t.pos <- grow t.pos (-1);
    t.tok <- grow t.tok Sched.none
  end

(* Make [pid] known, fresh at vruntime 0 if it was not. *)
let adopt t pid prio =
  ensure_cap t pid;
  if not t.present.(pid) then begin
    t.present.(pid) <- true;
    t.vruntime.(pid) <- 0;
    t.weight.(pid) <- Kernsim.Cfs.weight_of_nice prio;
    t.last_runtime.(pid) <- 0;
    t.cpu.(pid) <- 0
  end

let calc_delta delta weight = delta * nice_0_load / max 1 weight

(* fold kernel-reported runtime into vruntime *)
let advance_vruntime t pid runtime =
  let delta = runtime - t.last_runtime.(pid) in
  if delta > 0 then begin
    t.last_runtime.(pid) <- runtime;
    t.vruntime.(pid) <- t.vruntime.(pid) + calc_delta delta t.weight.(pid)
  end

let update_min t rq =
  let p = Heap.top rq.heap in
  if p >= 0 && t.vruntime.(p) > rq.min_vruntime then rq.min_vruntime <- t.vruntime.(p)

(* Unqueue a known pid (a no-op when it is not queued) and hand back the
   token it held. *)
let dequeue t pid =
  let held = t.tok.(pid) in
  Heap.remove t.rqs.(t.cpu.(pid)).heap ~key:t.vruntime ~tie:t.vruntime ~pos:t.pos pid;
  t.tok.(pid) <- Sched.none;
  held

(* Queue a known, unqueued pid on [cpu] holding [sched]. *)
let enqueue t ~cpu pid sched =
  t.cpu.(pid) <- cpu;
  t.tok.(pid) <- sched;
  Heap.add t.rqs.(cpu).heap ~key:t.vruntime ~tie:t.vruntime ~pos:t.pos pid

let nr_queued rq = Heap.length rq.heap

let nr_running rq = nr_queued rq + if rq.running < 0 then 0 else 1

(* ---------- trait implementation ---------- *)

(* Each hook is a closed [*_locked] function of the state and four
   arguments (unused ones are [()]) run through [Enoki.Lock.locked], so no
   closure is built per call. *)

let task_new_locked t pid runtime prio sched =
  let cpu = Sched.cpu sched in
  adopt t pid prio;
  ignore (dequeue t pid);
  t.weight.(pid) <- Kernsim.Cfs.weight_of_nice prio;
  t.last_runtime.(pid) <- runtime;
  t.vruntime.(pid) <- t.rqs.(cpu).min_vruntime;
  enqueue t ~cpu pid sched

let task_new t ~pid ~runtime ~prio ~sched =
  Enoki.Lock.locked t.lock task_new_locked t pid runtime prio sched

let task_wakeup_locked t pid runtime sched () =
  let cpu = Sched.cpu sched in
  adopt t pid 0;
  ignore (dequeue t pid);
  advance_vruntime t pid runtime;
  let floor_v = t.rqs.(cpu).min_vruntime - calc_delta wakeup_thresh t.weight.(pid) in
  if t.vruntime.(pid) < floor_v then t.vruntime.(pid) <- floor_v;
  enqueue t ~cpu pid sched

let task_wakeup t ~pid ~runtime ~waker_cpu:_ ~sched =
  Enoki.Lock.locked t.lock task_wakeup_locked t pid runtime sched ()

let task_blocked_locked t pid runtime cpu () =
  if known t pid then begin
    ignore (dequeue t pid);
    advance_vruntime t pid runtime;
    let rq = t.rqs.(cpu) in
    if rq.running = pid then rq.running <- -1;
    update_min t rq
  end

let task_blocked t ~pid ~runtime ~cpu =
  Enoki.Lock.locked t.lock task_blocked_locked t pid runtime cpu ()

let requeue_locked t pid runtime cpu sched =
  adopt t pid 0;
  ignore (dequeue t pid);
  advance_vruntime t pid runtime;
  let rq = t.rqs.(cpu) in
  if rq.running = pid then rq.running <- -1;
  enqueue t ~cpu pid sched;
  update_min t rq

let requeue t ~pid ~runtime ~cpu ~sched =
  Enoki.Lock.locked t.lock requeue_locked t pid runtime cpu sched

let task_preempt = requeue

let task_yield = requeue

(* Forget a known pid, returning the token it held if it was queued. *)
let drop t pid =
  let held = dequeue t pid in
  t.present.(pid) <- false;
  held

let task_dead_locked t pid () () () =
  if known t pid then begin
    ignore (drop t pid);
    let rq = t.rqs.(t.cpu.(pid)) in
    if rq.running = pid then rq.running <- -1
  end

let task_dead t ~pid = Enoki.Lock.locked t.lock task_dead_locked t pid () () ()

let task_departed_locked t pid cpu () () =
  let held = if known t pid then drop t pid else Sched.none in
  let rq = t.rqs.(cpu) in
  if rq.running = pid then rq.running <- -1;
  held

let task_departed t ~pid ~cpu = Enoki.Lock.locked t.lock task_departed_locked t pid cpu () ()

let pick_next_task_locked t cpu curr () () =
  let rq = t.rqs.(cpu) in
  let pid = Heap.top rq.heap in
  if pid >= 0 then begin
    let v = t.vruntime.(pid) in
    let held = dequeue t pid in
    rq.running <- pid;
    rq.ticks_since_dispatch <- 0;
    if rq.min_vruntime < v then rq.min_vruntime <- v;
    held
  end
  else begin
    rq.running <- Sched.pid curr;
    curr
  end

let pick_next_task t ~cpu ~curr ~curr_runtime:_ =
  Enoki.Lock.locked t.lock pick_next_task_locked t cpu curr () ()

(* Re-queue a rejected pick.  If the pid is somehow still queued its one
   entry moves: a pid never sits in the run-queues twice. *)
let pnt_err_locked t cpu pid held () =
  adopt t pid 0;
  ignore (dequeue t pid);
  enqueue t ~cpu pid held

let pnt_err t ~cpu ~pid ~err:_ ~sched =
  if not (Sched.is_none sched) then Enoki.Lock.locked t.lock pnt_err_locked t cpu pid sched ()

let in_range t cpu = cpu >= 0 && cpu < Array.length t.rqs

let rec mem_cpu cpu = function [] -> false | c :: tl -> c = cpu || mem_cpu cpu tl

(* the first allowed in-range cpu with the fewest tasks *)
let rec emptiest t cpus best best_n =
  match cpus with
  | [] -> best
  | c :: tl ->
    let n = if in_range t c then nr_running t.rqs.(c) else max_int in
    if n < best_n then emptiest t tl c n else emptiest t tl best best_n

(* go back to the previous cpu unless it has queued work; otherwise take
   the emptiest allowed queue.  Only [prev] needs the membership test: the
   scan draws its cpus from [allowed] itself. *)
let select_task_rq_locked t pid waker_cpu allowed () =
  let prev = if known t pid then t.cpu.(pid) else waker_cpu in
  if mem_cpu prev allowed && in_range t prev && nr_running t.rqs.(prev) = 0 then prev
  else emptiest t allowed (match allowed with c :: _ -> c | [] -> prev) max_int

let select_task_rq t ~pid ~waker_cpu ~allowed =
  Enoki.Lock.locked t.lock select_task_rq_locked t pid waker_cpu allowed ()

let migrate_task_rq_locked t pid sched () () =
  let to_cpu = Sched.cpu sched in
  if not (known t pid) then begin
    adopt t pid 0;
    enqueue t ~cpu:to_cpu pid sched;
    Sched.none
  end
  else begin
    let old = dequeue t pid in
    let from_rq = t.rqs.(t.cpu.(pid)) and to_rq = t.rqs.(to_cpu) in
    if from_rq.running = pid then from_rq.running <- -1;
    t.vruntime.(pid) <- t.vruntime.(pid) - from_rq.min_vruntime + to_rq.min_vruntime;
    enqueue t ~cpu:to_cpu pid sched;
    old
  end

let migrate_task_rq t ~pid ~sched =
  Enoki.Lock.locked t.lock migrate_task_rq_locked t pid sched () ()

(* steal from the longest queue only when this core is about to idle *)
let balance_locked t cpu () () () =
  let rq = t.rqs.(cpu) in
  if nr_queued rq > 0 || rq.running >= 0 then -1
  else begin
    (* first longest wins; only steal from a core that cannot drain itself
       promptly (something running, or at least two waiting) *)
    let best = ref (-1) and best_n = ref 0 in
    for other = 0 to Array.length t.rqs - 1 do
      if other <> cpu then begin
        let o = t.rqs.(other) in
        let q = nr_queued o in
        let n = if o.running >= 0 || q >= 2 then q else 0 in
        if n > !best_n then begin
          best := other;
          best_n := n
        end
      end
    done;
    if !best >= 0 then Heap.top t.rqs.(!best).heap else -1
  end

let balance t ~cpu = Enoki.Lock.locked t.lock balance_locked t cpu () () ()

let slice rq weight =
  let nr = max 1 (nr_running rq) in
  max min_slice (sched_latency * weight / (nice_0_load * nr))

let task_tick_locked t cpu queued () () =
  let rq = t.rqs.(cpu) in
  if queued then begin
    rq.ticks_since_dispatch <- rq.ticks_since_dispatch + 1;
    let pid = rq.running in
    if pid >= 0 && nr_queued rq > 0 && known t pid then begin
      let ran = rq.ticks_since_dispatch * Kernsim.Time.ms 1 in
      let w = t.weight.(pid) in
      let slice_exceeded = ran >= slice rq w in
      let curr_v_est = t.vruntime.(pid) + calc_delta ran w in
      let waiting_shorter = t.vruntime.(Heap.top rq.heap) < curr_v_est in
      if slice_exceeded || waiting_shorter then t.ctx.resched ~cpu
    end
  end

let task_tick t ~cpu ~queued = Enoki.Lock.locked t.lock task_tick_locked t cpu queued () ()

(* the weight is not part of the heap key, so a queued pid stays put *)
let task_prio_changed_locked t pid prio () () =
  if known t pid then t.weight.(pid) <- Kernsim.Cfs.weight_of_nice prio

let task_prio_changed t ~pid ~prio =
  Enoki.Lock.locked t.lock task_prio_changed_locked t pid prio () ()

(* ---------- live upgrade ---------- *)

type Enoki.Upgrade.transfer += Wfq_state of t

let reregister_prepare t = Some (Wfq_state t)

let reregister_init (ctx : Enoki.Ctx.t) transfer =
  match transfer with
  | None -> create ctx
  | Some (Wfq_state old) -> { old with ctx; lock = Enoki.Lock.create () }
  | Some _ -> raise (Enoki.Upgrade.Incompatible "wfq: unrecognised transfer state")

let queue_length t ~cpu = nr_queued t.rqs.(cpu)

let vruntime_of t ~pid = if known t pid then Some t.vruntime.(pid) else None

module Private = struct
  let queue_length = queue_length

  let vruntime_of = vruntime_of
end
