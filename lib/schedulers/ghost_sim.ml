type policy = Fifo_per_cpu | Sol | Gshinjuku

let agent_cpu policy ~nr_cpus =
  match policy with Fifo_per_cpu -> None | Sol | Gshinjuku -> Some (nr_cpus - 1)

module Q = Ds.Pid_fifo

type t = {
  ops : Kernsim.Sched_class.kernel_ops;
  policy : policy;
  agent : int; (* the global agent's core, -1 for per-CPU agents *)
  workers : int list; (* cpus the policy schedules user tasks on *)
  queues : unit Q.t array; (* per-cpu for Fifo_per_cpu; index 0 global otherwise *)
  running : int array; (* -1 = none *)
  ready : bool array; (* a decision is available for this cpu *)
  pending : bool array; (* a request is with the agent *)
  mutable decided : (unit -> unit) array; (* per-cpu: the agent's answer lands *)
  tasks : (int, Kernsim.Task.t) Hashtbl.t;
  mutable rr : int;
  mutable agent_free_at : int; (* global agent serialization point *)
  assigned : (int, int) Hashtbl.t; (* per-CPU FIFO: sticky pid -> cpu *)
}

let is_global t = t.policy <> Fifo_per_cpu

let queue_for t cpu = if is_global t then t.queues.(0) else t.queues.(cpu)

let agent_latency t =
  match t.policy with
  | Fifo_per_cpu -> t.ops.costs.ghost_agent_local
  | Sol | Gshinjuku -> t.ops.costs.ghost_agent_remote

(* every event is a message on the shared queue to the agent; a global
   agent additionally processes messages one at a time, so bursts queue *)
let msg_cost t ~cpu = t.ops.charge ~cpu t.ops.costs.ghost_msg

(* the worker cpus [task] may run on, counted and indexed without building
   the list *)
let rec candidates task n = function
  | [] -> n
  | c :: rest -> candidates task (if Kernsim.Task.allowed_cpu task c then n + 1 else n) rest

let rec nth_candidate task i = function
  | [] -> -1
  | c :: rest ->
    if not (Kernsim.Task.allowed_cpu task c) then nth_candidate task i rest
    else if i = 0 then c
    else nth_candidate task (i - 1) rest

let rec idle_candidate t task = function
  | [] -> -1
  | c :: rest ->
    if Kernsim.Task.allowed_cpu task c && t.ops.cpu_is_idle c then c
    else idle_candidate t task rest

let round_robin t task n =
  t.rr <- t.rr + 1;
  nth_candidate task (t.rr mod n) t.workers

let select_task_rq t (task : Kernsim.Task.t) ~waker_cpu =
  msg_cost t ~cpu:waker_cpu;
  let n = candidates task 0 t.workers in
  if n = 0 then waker_cpu
  else
    match t.policy with
    | Fifo_per_cpu -> (
      (* per-CPU model: tasks belong to one cpu's queue; wakeups return
         there no matter what is running (no work stealing, no preemption) *)
      match Hashtbl.find t.assigned task.pid with
      | c when Kernsim.Task.allowed_cpu task c && List.mem c t.workers -> c
      | _ | (exception Not_found) ->
        let c = round_robin t task n in
        Hashtbl.replace t.assigned task.pid c;
        c)
    | Sol | Gshinjuku ->
      (* prefer an idle worker core, else round-robin *)
      let c = idle_candidate t task t.workers in
      if c >= 0 then c else round_robin t task n

let enqueue t (task : Kernsim.Task.t) ~cpu =
  Q.push_back (queue_for t cpu) task.pid ();
  Hashtbl.replace t.tasks task.pid task

let remove_pid t pid =
  for i = 0 to Array.length t.queues - 1 do
    Q.remove t.queues.(i) pid
  done

let task_new t (task : Kernsim.Task.t) ~cpu =
  enqueue t task ~cpu;
  (match t.policy with
  | Gshinjuku -> t.ops.set_timer ~cpu:(max 0 (min cpu (t.ops.nr_cpus - 1))) Shinjuku.default_slice
  | Fifo_per_cpu | Sol -> ())

(* start a decision round-trip through the agent for [cpu]; a global
   agent serves one request at a time, so concurrent cpus queue behind
   [agent_free_at] *)
let kick_agent t ~cpu =
  if (not t.pending.(cpu)) && not t.ready.(cpu) then begin
    t.pending.(cpu) <- true;
    let latency = agent_latency t in
    let delay =
      match t.policy with
      | Fifo_per_cpu ->
        (* the per-CPU agent is scheduled and runs on this very core *)
        t.ops.charge ~cpu t.ops.costs.ghost_agent_burn;
        latency
      | Sol | Gshinjuku ->
        (* the global agent burns its dedicated core, serially *)
        if t.agent >= 0 then t.ops.charge ~cpu:t.agent latency;
        let now = t.ops.now () in
        let start = max now t.agent_free_at in
        t.agent_free_at <- start + latency;
        t.agent_free_at - now
    in
    t.ops.defer ~delay t.decided.(cpu)
  end

let decided t cpu () =
  t.pending.(cpu) <- false;
  t.ready.(cpu) <- true;
  t.ops.resched_cpu cpu

let task_wakeup t (task : Kernsim.Task.t) ~cpu ~waker_cpu =
  msg_cost t ~cpu:waker_cpu;
  enqueue t task ~cpu;
  (* a per-CPU agent picks the wakeup message off its own core's queue
     right away, overlapping the decision with the wakeup IPI *)
  if t.policy = Fifo_per_cpu && t.running.(cpu) < 0 then kick_agent t ~cpu

let task_blocked t (task : Kernsim.Task.t) ~cpu =
  msg_cost t ~cpu;
  if t.running.(cpu) = task.pid then t.running.(cpu) <- -1;
  remove_pid t task.pid

let requeue t (task : Kernsim.Task.t) ~cpu =
  msg_cost t ~cpu;
  if t.running.(cpu) = task.pid then t.running.(cpu) <- -1;
  remove_pid t task.pid;
  enqueue t task ~cpu

let task_dead t (task : Kernsim.Task.t) ~cpu =
  msg_cost t ~cpu;
  Array.iteri (fun c r -> if r = task.pid then t.running.(c) <- -1) t.running;
  remove_pid t task.pid;
  Hashtbl.remove t.tasks task.pid

(* the asynchronous upcall: no decision ready means the core goes idle
   until the agent answers.  The Shinjuku agent instead keeps a committed
   transaction ready per cpu (it runs hot on its dedicated core), so its
   picks pay a commit cost rather than a blocking round trip. *)
(* -1 = no task (the int-encoded Sched_class convention) *)
let runnable_here t cpu pid =
  match Hashtbl.find t.tasks pid with
  | (task : Kernsim.Task.t) -> task.cpu = cpu && task.state = Kernsim.Task.Runnable
  | exception Not_found -> false

(* the first queued entry runnable on [cpu], or -1 *)
let rec first_runnable t q cpu e =
  if e < 0 || runnable_here t cpu (Q.pid q e) then e else first_runnable t q cpu (Q.next q e)

(* run the first queued task runnable on [cpu], or return -1 *)
let take_first t cpu =
  let q = queue_for t cpu in
  let e = first_runnable t q cpu (Q.head q) in
  if e < 0 then -1
  else begin
    let pid = Q.pid q e in
    Q.take q e;
    t.running.(cpu) <- pid;
    pid
  end

(* The agent's own core runs only what no worker may run (a task allowed
   only that core), straight off the queue: no agent round trip, no
   charge. *)
let pick_next_task t ~cpu =
  if cpu = t.agent then take_first t cpu
  else if t.policy = Gshinjuku || t.ready.(cpu) then begin
    if t.policy = Gshinjuku then begin
      (* commit the agent's transaction: cost on this core, plus the agent
         core burns continuously while transactions flow *)
      t.ops.charge ~cpu (2 * t.ops.costs.ghost_msg);
      if t.agent >= 0 then t.ops.charge ~cpu:t.agent t.ops.costs.ghost_agent_remote
    end;
    t.ready.(cpu) <- false;
    let pid = take_first t cpu in
    if pid >= 0 && t.policy = Gshinjuku then t.ops.set_timer ~cpu Shinjuku.default_slice;
    pid
  end
  else begin
    if not (Q.is_empty (queue_for t cpu)) then kick_agent t ~cpu;
    -1
  end

(* pull the global queue head onto this run-queue (the agent's placement
   decision being applied by the kernel); -1 = nothing to pull *)
let balance t ~cpu =
  if cpu = t.agent then -1
  else if t.policy <> Gshinjuku && not t.ready.(cpu) then -1
  else if is_global t && not (Q.is_empty t.queues.(0)) then
    let pid = Q.pid t.queues.(0) (Q.head t.queues.(0)) in
    match Hashtbl.find t.tasks pid with
    | (task : Kernsim.Task.t)
      when task.cpu <> cpu && task.state = Kernsim.Task.Runnable
           && Kernsim.Task.allowed_cpu task cpu
           && t.running.(task.cpu) >= 0 ->
      pid
    | _ | (exception Not_found) -> -1
  else -1

let task_tick t ~cpu ~queued =
  match t.policy with
  | Gshinjuku -> if queued && not (Q.is_empty (queue_for t cpu)) then t.ops.resched_cpu cpu
  | Fifo_per_cpu | Sol -> ()

let factory policy : Kernsim.Sched_class.factory =
 fun ops ->
  let nq = match policy with Fifo_per_cpu -> ops.nr_cpus | Sol | Gshinjuku -> 1 in
  let agent = match agent_cpu policy ~nr_cpus:ops.nr_cpus with Some a -> a | None -> -1 in
  let t =
    {
      ops;
      policy;
      agent;
      (* the global agent's core is dedicated to the agent *)
      workers = List.filter (fun c -> c <> agent) (List.init ops.nr_cpus Fun.id);
      queues = Array.init nq (fun _ -> Q.create ~dummy:());
      running = Array.make ops.nr_cpus (-1);
      ready = Array.make ops.nr_cpus false;
      pending = Array.make ops.nr_cpus false;
      decided = [||];
      tasks = Hashtbl.create 64;
      rr = 0;
      agent_free_at = 0;
      assigned = Hashtbl.create 64;
    }
  in
  t.decided <- Array.init ops.nr_cpus (decided t);
  let name =
    match policy with
    | Fifo_per_cpu -> "ghost-fifo"
    | Sol -> "ghost-sol"
    | Gshinjuku -> "ghost-shinjuku"
  in
  {
    Kernsim.Sched_class.name;
    select_task_rq = (fun task ~waker_cpu -> select_task_rq t task ~waker_cpu);
    task_new = (fun task ~cpu -> task_new t task ~cpu);
    task_wakeup = (fun task ~cpu ~waker_cpu -> task_wakeup t task ~cpu ~waker_cpu);
    task_blocked = (fun task ~cpu -> task_blocked t task ~cpu);
    task_yield = (fun task ~cpu -> requeue t task ~cpu);
    task_preempt = (fun task ~cpu -> requeue t task ~cpu);
    task_dead = (fun task ~cpu -> task_dead t task ~cpu);
    task_departed = (fun task ~cpu -> task_dead t task ~cpu);
    task_tick = (fun ~cpu ~queued -> task_tick t ~cpu ~queued);
    pick_next_task = (fun ~cpu -> pick_next_task t ~cpu);
    balance = (fun ~cpu -> balance t ~cpu);
    balance_err = (fun _ ~cpu:_ -> ());
    migrate_task_rq = (fun _ ~from_cpu:_ ~to_cpu:_ -> ());
    task_prio_changed = (fun _ -> ());
    task_affinity_changed = (fun _ -> ());
    deliver_hint = (fun _ _ -> ());
  }
