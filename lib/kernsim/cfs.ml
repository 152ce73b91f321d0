(* Tunables: the Linux values the paper cites. *)

(* target preemption period *)
let sched_latency = Time.us 6_000

(* minimum slice *)
let min_granularity = Time.us 750

(* wakeup preemption threshold *)
let wakeup_granularity = Time.ms 1

(* minimum waiting-task surplus before stealing across NUMA nodes *)
let numa_imbalance_threshold = 2

(* Linux's sched_prio_to_weight: weight for nice -20 .. 19. *)
let prio_to_weight =
  [|
    88761; 71755; 56483; 46273; 36291;
    29154; 23254; 18705; 14949; 11916;
    9548; 7620; 6100; 4904; 3906;
    3121; 2501; 1991; 1586; 1277;
    1024; 820; 655; 526; 423;
    335; 272; 215; 172; 137;
    110; 87; 70; 56; 45;
    36; 29; 23; 18; 15;
  |]

let nice_0_load = 1024

let weight_of_nice nice =
  let nice = max (-20) (min 19 nice) in
  prio_to_weight.(nice + 20)

module Heap = Ds.Pid_heap

(* Per-cpu run-queue: the waiting pids in a min-heap ordered by
   (vruntime, pid) (the key doubles as the tie column, so equal vruntimes
   fall through to the pid).  The pid tiebreak keeps equal vruntimes
   deterministic and makes the order total.  [curr] is -1 when no CFS task is
   dispatched on the cpu. *)
type cfs_rq = {
  heap : Heap.t;
  mutable min_vruntime : int;
  mutable load_waiting : int; (* sum of weights in the heap *)
  mutable curr : int; (* pid of the dispatched CFS task, -1 = none *)
}

(* Scheduling state lives in parallel pid-indexed int arrays rather than a
   record per task: machine pids are handed out contiguously, so every
   entity access on the pick/tick/dequeue hot paths is a bounds check plus
   an unboxed array load, and adopting a task allocates nothing. *)
type t = {
  ops : Sched_class.kernel_ops;
  rqs : cfs_rq array;
  (* waiting tasks across every rq: lets [balance] prove "nothing to pull
     anywhere" in O(1) instead of walking the topology's cpu lists on every
     schedule operation (pullable is 0 wherever nr_waiting is 0) *)
  mutable nr_waiting_total : int;
  mutable present : bool array; (* pid adopted by this class *)
  mutable vruntime : int array;
  mutable weight : int array;
  mutable pos : int array; (* pid -> index in its rq's heap, -1 = not queued *)
  mutable rq_cpu : int array;
  mutable last_sum_exec : int array; (* checkpoint for vruntime deltas *)
  mutable slice_start_exec : int array; (* sum_exec when last dispatched *)
  mutable tasks : Task.t option array; (* pid -> task_struct view *)
}

let has_ent t pid = pid >= 0 && pid < Array.length t.present && t.present.(pid)

let find_ctask t pid =
  if pid >= 0 && pid < Array.length t.tasks then Array.unsafe_get t.tasks pid else None

let ensure_cap t pid =
  if pid >= Array.length t.present then begin
    let n = max (pid + 1) (2 * Array.length t.present) in
    let grow src fill =
      let dst = Array.make n fill in
      Array.blit src 0 dst 0 (Array.length src);
      dst
    in
    t.present <- grow t.present false;
    t.vruntime <- grow t.vruntime 0;
    t.weight <- grow t.weight 0;
    t.pos <- grow t.pos (-1);
    t.rq_cpu <- grow t.rq_cpu 0;
    t.last_sum_exec <- grow t.last_sum_exec 0;
    t.slice_start_exec <- grow t.slice_start_exec 0;
    t.tasks <- grow t.tasks None
  end

let ensure_ent t (task : Task.t) =
  ensure_cap t task.pid;
  if not t.present.(task.pid) then begin
    let pid = task.pid in
    t.present.(pid) <- true;
    t.vruntime.(pid) <- 0;
    t.weight.(pid) <- weight_of_nice task.nice;
    t.pos.(pid) <- -1;
    t.rq_cpu.(pid) <- 0;
    t.last_sum_exec.(pid) <- 0;
    t.slice_start_exec.(pid) <- 0;
    t.tasks.(pid) <- Some task
  end

(* ---------- run-queue ---------- *)

(* strict (vruntime, pid) order, the heap's own *)
let ent_lt t p q =
  let vp = t.vruntime.(p) and vq = t.vruntime.(q) in
  vp < vq || (vp = vq && p < q)

let rq_insert t rq pid =
  rq.load_waiting <- rq.load_waiting + t.weight.(pid);
  t.nr_waiting_total <- t.nr_waiting_total + 1;
  Heap.add rq.heap ~key:t.vruntime ~tie:t.vruntime ~pos:t.pos pid

(* no-op when the pid is not queued, like the old on_rq-guarded removal *)
let rq_remove t rq pid =
  if t.pos.(pid) >= 0 then begin
    rq.load_waiting <- rq.load_waiting - t.weight.(pid);
    t.nr_waiting_total <- t.nr_waiting_total - 1;
    Heap.remove rq.heap ~key:t.vruntime ~tie:t.vruntime ~pos:t.pos pid
  end

(* ---------- accounting ---------- *)

let curr_weight t rq = if rq.curr >= 0 && has_ent t rq.curr then t.weight.(rq.curr) else 0

let nr_waiting rq = Heap.length rq.heap

let nr_running rq = nr_waiting rq + if rq.curr < 0 then 0 else 1

let rq_load t rq = rq.load_waiting + curr_weight t rq

(* vruntime advances inversely to weight. *)
let calc_delta_fair delta weight = delta * nice_0_load / max 1 weight

let update_min_vruntime t rq =
  let top = Heap.top rq.heap in
  let candidate =
    if top >= 0 then begin
      let v = t.vruntime.(top) in
      if rq.curr >= 0 && has_ent t rq.curr then min v t.vruntime.(rq.curr) else v
    end
    else if rq.curr >= 0 && has_ent t rq.curr then t.vruntime.(rq.curr)
    else rq.min_vruntime
  in
  if candidate > rq.min_vruntime then rq.min_vruntime <- candidate

(* Fold freshly consumed cpu time (tracked by the kernel in sum_exec) into
   the entity's vruntime.  Only ever called on the descheduling/running
   task, which pick removed from the heap — vruntime is never mutated while
   the pid is queued, the same discipline the tree's immutable keys forced. *)
let update_curr t rq (task : Task.t) =
  ensure_ent t task;
  let pid = task.pid in
  let delta = task.sum_exec - t.last_sum_exec.(pid) in
  if delta > 0 then begin
    t.last_sum_exec.(pid) <- task.sum_exec;
    t.vruntime.(pid) <- t.vruntime.(pid) + calc_delta_fair delta t.weight.(pid);
    update_min_vruntime t rq
  end

(* CFS slice: the share of one latency period this entity is owed. *)
let sched_slice t rq pid =
  let nr = max 1 (nr_running rq) in
  let period =
    if nr > sched_latency / min_granularity then
      nr * min_granularity
    else sched_latency
  in
  let load = max 1 (rq_load t rq) in
  max min_granularity (period * t.weight.(pid) / load)

let place_entity t rq pid ~newly_woken =
  let floor_v =
    if newly_woken then
      rq.min_vruntime - calc_delta_fair (sched_latency / 2) t.weight.(pid)
    else rq.min_vruntime
  in
  if t.vruntime.(pid) < floor_v then t.vruntime.(pid) <- floor_v;
  (* also bound the deficit: queues whose min_vruntime raced ahead (e.g.
     under a lone low-weight task) must not exile this entity for seconds *)
  let ceiling = rq.min_vruntime + sched_latency in
  if t.vruntime.(pid) > ceiling then t.vruntime.(pid) <- ceiling

(* ---------- placement ---------- *)

let allowed (task : Task.t) cpu = Task.allowed_cpu task cpu

let rec find_idle_in t (task : Task.t) cpus =
  match cpus with
  | [] -> -1
  | c :: tl ->
    if allowed task c && t.ops.cpu_is_idle c && t.rqs.(c).curr < 0 && nr_waiting t.rqs.(c) = 0
    then c
    else find_idle_in t task tl

(* weight-based, like find_idlest_cpu: a cpu running only nice-19 batch
   work is much less loaded than one stacked with high-priority tasks *)
let least_loaded t (task : Task.t) =
  let best_c = ref (-1) in
  let best_l = ref max_int in
  for c = 0 to t.ops.nr_cpus - 1 do
    if allowed task c then begin
      let load = rq_load t t.rqs.(c) in
      if !best_c < 0 || load < !best_l then begin
        best_c := c;
        best_l := load
      end
    end
  done;
  if !best_c >= 0 then !best_c else task.cpu

let select_task_rq t (task : Task.t) ~waker_cpu =
  let prev = task.cpu in
  let topo = t.ops.topology in
  if allowed task prev && t.ops.cpu_is_idle prev && nr_waiting t.rqs.(prev) = 0 then prev
  else begin
    let c = find_idle_in t task (Topology.llc_cpus topo prev) in
    if c >= 0 then c
    else begin
      let c = find_idle_in t task (Topology.node_cpus topo prev) in
      if c >= 0 then c
      else begin
        (* consider the waker's side of the machine before a full scan *)
        let c = find_idle_in t task (Topology.node_cpus topo waker_cpu) in
        if c >= 0 then c
        else begin
          let c = find_idle_in t task (Topology.all_cpus topo) in
          if c >= 0 then c else least_loaded t task
        end
      end
    end
  end

(* ---------- balancing ---------- *)

(* A pullable waiting task on [from]'s heap, preferring the one that would
   run last (largest (vruntime, pid)), that may run on [to_cpu].  The heap
   is scanned out of order; taking the maximum key reproduces exactly the
   keep-last fold over the old tree's in-order iteration. *)
let steal_candidate t ~from ~to_cpu =
  let rq = t.rqs.(from) in
  let best = ref (-1) in
  for i = 0 to nr_waiting rq - 1 do
    let pid = Heap.nth rq.heap i in
    match find_ctask t pid with
    | Some task when allowed task to_cpu -> if !best < 0 || ent_lt t !best pid then best := pid
    | Some _ | None -> ()
  done;
  !best

(* Only run-queues that cannot drain themselves promptly are eligible
   sources: something running plus waiters, or several waiters.  An idle
   cpu with one just-woken task is about to run it — pulling would just
   migrate cache-hot work (real CFS's migration-cost hysteresis). *)
let pullable t c =
  let rq = t.rqs.(c) in
  let w = nr_waiting rq in
  if rq.curr >= 0 then w else if w >= 2 then w else 0

(* First maximum wins, matching the old fold; toplevel recursion so the
   per-schedule balance scan allocates nothing at all (callers recompute
   [pullable] from the returned cpu instead of receiving a tuple). *)
let rec busiest_from t ~excluding cs best_c best_w =
  match cs with
  | [] -> if best_w > 0 then best_c else -1
  | c :: tl ->
    if c <> excluding then begin
      let w = pullable t c in
      if w > best_w then busiest_from t ~excluding tl c w
      else busiest_from t ~excluding tl best_c best_w
    end
    else busiest_from t ~excluding tl best_c best_w

let busiest_cpu t ~among ~excluding = busiest_from t ~excluding among (-1) 0

(* [pullable src] is pure, so recomputing it here sees exactly the value
   the busiest scan compared.  Toplevel, not closures inside [balance]:
   balance runs on every schedule operation and must not allocate. *)
let try_pull t src ~to_cpu ~here ~threshold =
  if src >= 0 && pullable t src >= here + threshold then
    steal_candidate t ~from:src ~to_cpu
  else -1

let remote_pull t ~cpu ~here =
  try_pull t
    (busiest_cpu t ~among:(Topology.all_cpus t.ops.topology) ~excluding:cpu)
    ~to_cpu:cpu ~here ~threshold:numa_imbalance_threshold

let balance_scan t ~cpu rq =
  let topo = t.ops.topology in
  let here = nr_running rq in
  let local = busiest_cpu t ~among:(Topology.node_cpus topo cpu) ~excluding:cpu in
  if local >= 0 then begin
    (* newidle: pull whenever someone local is waiting and we are idle;
       periodic: pull only past an imbalance of 2 *)
    let threshold = if here = 0 then 1 else 2 in
    let pid = try_pull t local ~to_cpu:cpu ~here ~threshold in
    if pid >= 0 then pid else if here = 0 then remote_pull t ~cpu ~here else -1
  end
  else if here = 0 then remote_pull t ~cpu ~here
  else -1

let balance t ~cpu =
  let rq = t.rqs.(cpu) in
  (* no waiter anywhere but here => pullable is 0 on every other cpu and
     both busiest scans would come back empty; prove it in O(1) *)
  if t.nr_waiting_total - nr_waiting rq = 0 then -1 else balance_scan t ~cpu rq

(* ---------- hooks ---------- *)

let task_new t (task : Task.t) ~cpu =
  ensure_ent t task;
  let pid = task.pid in
  t.weight.(pid) <- weight_of_nice task.nice;
  t.rq_cpu.(pid) <- cpu;
  let rq = t.rqs.(cpu) in
  t.vruntime.(pid) <- rq.min_vruntime;
  t.last_sum_exec.(pid) <- task.sum_exec;
  rq_insert t rq pid

let task_wakeup t (task : Task.t) ~cpu ~waker_cpu =
  ignore waker_cpu;
  ensure_ent t task;
  let pid = task.pid in
  let rq = t.rqs.(cpu) in
  t.rq_cpu.(pid) <- cpu;
  place_entity t rq pid ~newly_woken:true;
  rq_insert t rq pid;
  (* wakeup preemption: granularity scales with the woken entity's weight,
     as in wakeup_gran() — heavy (high-priority) wakers preempt sooner *)
  if rq.curr >= 0 && has_ent t rq.curr then begin
    let gran = calc_delta_fair wakeup_granularity t.weight.(pid) in
    if t.vruntime.(pid) + gran < t.vruntime.(rq.curr) then t.ops.resched_cpu cpu
  end

let dequeue_running t (task : Task.t) ~cpu =
  let rq = t.rqs.(cpu) in
  update_curr t rq task;
  if rq.curr = task.pid then rq.curr <- -1 else rq_remove t rq task.pid

let task_blocked t (task : Task.t) ~cpu = dequeue_running t task ~cpu

let forget t pid =
  t.present.(pid) <- false;
  t.tasks.(pid) <- None

let task_dead t (task : Task.t) ~cpu =
  dequeue_running t task ~cpu;
  forget t task.pid

let task_departed t (task : Task.t) ~cpu =
  if has_ent t task.pid then begin
    (if Task.is_runnable task then dequeue_running t task ~cpu);
    forget t task.pid
  end

let requeue_preempted t (task : Task.t) ~cpu =
  let rq = t.rqs.(cpu) in
  update_curr t rq task;
  let pid = task.pid in
  if rq.curr = pid then rq.curr <- -1;
  if t.pos.(pid) < 0 then begin
    t.rq_cpu.(pid) <- cpu;
    rq_insert t rq pid
  end

let task_preempt t (task : Task.t) ~cpu = requeue_preempted t task ~cpu

let task_yield t (task : Task.t) ~cpu = requeue_preempted t task ~cpu

let pick_next_task t ~cpu =
  let rq = t.rqs.(cpu) in
  let pid = Heap.top rq.heap in
  if pid < 0 || not (has_ent t pid) then -1
  else begin
    rq_remove t rq pid;
    rq.curr <- pid;
    (match find_ctask t pid with
    | Some task ->
      t.last_sum_exec.(pid) <- task.sum_exec;
      t.slice_start_exec.(pid) <- task.sum_exec
    | None -> ());
    pid
  end

let task_tick t ~cpu ~queued =
  ignore queued;
  let rq = t.rqs.(cpu) in
  (if rq.curr >= 0 then begin
     let pid = rq.curr in
     match find_ctask t pid with
     | Some task when has_ent t pid ->
       update_curr t rq task;
       if nr_waiting rq > 0 then begin
         let ran = task.sum_exec - t.slice_start_exec.(pid) in
         if ran >= sched_slice t rq pid then t.ops.resched_cpu cpu
       end
     | Some _ | None -> ()
   end);
  (* periodic balancing: a busy cpu observing a big enough imbalance asks
     itself to reschedule, which runs the balance hook *)
  if rq.curr >= 0 && t.nr_waiting_total - nr_waiting rq > 0 then begin
    let here = nr_running rq in
    let topo = t.ops.topology in
    let b = busiest_cpu t ~among:(Topology.node_cpus topo cpu) ~excluding:cpu in
    if b >= 0 && pullable t b >= here + 2 then t.ops.resched_cpu cpu
  end

let migrate_task_rq t (task : Task.t) ~from_cpu ~to_cpu =
  ensure_ent t task;
  let pid = task.pid in
  let from_rq = t.rqs.(from_cpu) and to_rq = t.rqs.(to_cpu) in
  if from_rq.curr = pid then from_rq.curr <- -1;
  rq_remove t from_rq pid;
  (* renormalize vruntime relative to the destination queue, carrying at
     most one latency period of credit or debt: min_vruntime diverges wildly
     between queues dominated by different weights, and letting the raw
     offset travel can exile a task behind a low-weight hog for seconds *)
  let cap = sched_latency in
  let offset = max (-cap) (min cap (t.vruntime.(pid) - from_rq.min_vruntime)) in
  t.vruntime.(pid) <- to_rq.min_vruntime + offset;
  t.rq_cpu.(pid) <- to_cpu;
  if Task.is_runnable task && task.state <> Task.Running then rq_insert t to_rq pid

let task_prio_changed t (task : Task.t) =
  ensure_ent t task;
  let pid = task.pid in
  if t.pos.(pid) >= 0 then begin
    let rq = t.rqs.(t.rq_cpu.(pid)) in
    rq_remove t rq pid;
    t.weight.(pid) <- weight_of_nice task.nice;
    rq_insert t rq pid
  end
  else t.weight.(pid) <- weight_of_nice task.nice

(* Internal consistency check used by tests and while debugging: every
   runnable, non-running task must sit in exactly the heap of its run-queue
   at its recorded position, each heap must satisfy the (vruntime, pid)
   min-heap order, and the waiting total must match the heaps. *)
let check_consistency t ~hook =
  let total = Array.fold_left (fun acc rq -> acc + Heap.length rq.heap) 0 t.rqs in
  if total <> t.nr_waiting_total then
    failwith
      (Printf.sprintf "cfs[%s]: nr_waiting_total=%d but heaps hold %d" hook
         t.nr_waiting_total total);
  Array.iteri
    (fun cpu rq ->
      for i = 0 to Heap.length rq.heap - 1 do
        let pid = Heap.nth rq.heap i in
        if t.pos.(pid) <> i then
          failwith
            (Printf.sprintf "cfs[%s]: cpu %d heap slot %d holds pid %d but pos=%d" hook cpu
               i pid t.pos.(pid));
        if i > 0 then begin
          let parent = Heap.nth rq.heap ((i - 1) / 2) in
          if ent_lt t pid parent then
            failwith
              (Printf.sprintf "cfs[%s]: cpu %d heap order violated at slot %d (pid %d)"
                 hook cpu i pid)
        end
      done)
    t.rqs;
  let iter_tasks f =
    Array.iteri (fun pid task -> match task with Some task -> f pid task | None -> ()) t.tasks
  in
  iter_tasks
    (fun pid (task : Task.t) ->
      if has_ent t pid then begin
        let in_heap rq =
          let i = t.pos.(pid) in
          i >= 0 && i < Heap.length rq.heap && Heap.nth rq.heap i = pid
        in
        let is_curr = Array.exists (fun rq -> rq.curr = pid) t.rqs in
        if task.state = Task.Runnable && not is_curr then begin
          if t.pos.(pid) < 0 then
            failwith
              (Printf.sprintf "cfs[%s]: runnable pid %d not on_rq (task.cpu=%d)" hook pid
                 task.cpu);
          if t.rq_cpu.(pid) <> task.cpu then
            failwith
              (Printf.sprintf "cfs[%s]: pid %d heap cpu %d but kernel cpu %d" hook pid
                 t.rq_cpu.(pid) task.cpu);
          if not (in_heap t.rqs.(t.rq_cpu.(pid))) then
            failwith
              (Printf.sprintf "cfs[%s]: pid %d (v=%d) missing from heap on cpu %d" hook pid
                 t.vruntime.(pid) t.rq_cpu.(pid))
        end
      end);
  (* a task the kernel is running must be this class's curr on its cpu *)
  iter_tasks
    (fun pid (task : Task.t) ->
      if task.state = Task.Running && has_ent t pid then
        let c = t.rqs.(task.cpu).curr in
        if c <> pid then
          failwith
            (Printf.sprintf "cfs[%s]: pid %d running on cpu %d but rq.curr=%s" hook pid
               task.cpu
               (if c >= 0 then string_of_int c else "none")))

let factory ?(debug_checks = false) () : Sched_class.factory =
 fun ops ->
  let t =
    {
      ops;
      nr_waiting_total = 0;
      rqs =
        Array.init ops.nr_cpus (fun _ ->
            { heap = Heap.create (); min_vruntime = 0; load_waiting = 0; curr = -1 });
      present = Array.make 64 false;
      vruntime = Array.make 64 0;
      weight = Array.make 64 0;
      pos = Array.make 64 (-1);
      rq_cpu = Array.make 64 0;
      last_sum_exec = Array.make 64 0;
      slice_start_exec = Array.make 64 0;
      tasks = Array.make 64 None;
    }
  in
  (* Conditional post-check, not a closure-wrapping combinator: the hooks
     are the event hot path and must not allocate a thunk per call just to
     carry a disabled debug check. *)
  let chk hook = if debug_checks then check_consistency t ~hook in
  {
    Sched_class.name = "cfs";
    select_task_rq = (fun task ~waker_cpu -> select_task_rq t task ~waker_cpu);
    task_new =
      (fun task ~cpu ->
        task_new t task ~cpu;
        chk "task_new");
    task_wakeup =
      (fun task ~cpu ~waker_cpu ->
        task_wakeup t task ~cpu ~waker_cpu;
        chk "task_wakeup");
    task_blocked =
      (fun task ~cpu ->
        task_blocked t task ~cpu;
        chk "task_blocked");
    task_yield =
      (fun task ~cpu ->
        task_yield t task ~cpu;
        chk "task_yield");
    task_preempt =
      (fun task ~cpu ->
        task_preempt t task ~cpu;
        chk "task_preempt");
    task_dead =
      (fun task ~cpu ->
        task_dead t task ~cpu;
        chk "task_dead");
    task_departed =
      (fun task ~cpu ->
        task_departed t task ~cpu;
        chk "task_departed");
    task_tick =
      (fun ~cpu ~queued ->
        task_tick t ~cpu ~queued;
        chk "tick");
    pick_next_task =
      (fun ~cpu ->
        let pid = pick_next_task t ~cpu in
        chk "pick";
        pid);
    balance = (fun ~cpu -> balance t ~cpu);
    balance_err = (fun _ ~cpu:_ -> ());
    migrate_task_rq =
      (fun task ~from_cpu ~to_cpu ->
        migrate_task_rq t task ~from_cpu ~to_cpu;
        chk "migrate");
    task_prio_changed =
      (fun task ->
        task_prio_changed t task;
        chk "prio");
    task_affinity_changed = (fun _ -> ());
    deliver_hint = (fun _ _ -> ());
  }
