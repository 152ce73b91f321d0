module Sched = Enoki.Schedulable
module Q = Ds.Pid_fifo

let warmth_timeout = Kernsim.Time.ms 20

(* a nest core with this many runnable tasks stops attracting wakeups *)
let spill_threshold = 3

type t = {
  ctx : Enoki.Ctx.t;
  queues : Sched.t Q.t array;
  running : int array; (* -1 = none *)
  last_used : int array; (* per-cpu: last time we placed or ran work there *)
  mutable nest : int list; (* warm cores, most recently used first *)
  lock : Enoki.Lock.t;
}

include Enoki.Sched_trait.Defaults (struct type nonrec t = t end)

let name = "nest"

let create (ctx : Enoki.Ctx.t) =
  {
    ctx;
    queues = Array.init ctx.nr_cpus (fun _ -> Q.create ~dummy:Sched.none);
    running = Array.make ctx.nr_cpus (-1);
    last_used = Array.make ctx.nr_cpus min_int;
    nest = [ 0 ];
    lock = Enoki.Lock.create ctx.locks;
  }

let get_policy t = t.ctx.policy

let load_of t cpu = Q.length t.queues.(cpu) + if t.running.(cpu) < 0 then 0 else 1

let touch t cpu =
  t.last_used.(cpu) <- t.ctx.now ();
  if not (List.mem cpu t.nest) then t.nest <- cpu :: t.nest

(* the warm cores of [l], sharing [l] itself when none has cooled off, so
   a steady nest is pruned without allocating *)
let rec warm t now = function
  | [] -> []
  | c :: rest as l ->
    let rest' = warm t now rest in
    if load_of t c > 0 || now - t.last_used.(c) < warmth_timeout then
      if rest' == rest then l else c :: rest'
    else rest'

(* drop cores that have cooled off *)
let prune t = t.nest <- (match warm t (t.ctx.now ()) t.nest with [] -> [ 0 ] | l -> l)

(* the first allowed core of [l] with the least load, or -1 *)
let rec emptiest t allowed best = function
  | [] -> best
  | c :: rest ->
    if List.mem c allowed && (best < 0 || load_of t c < load_of t best) then
      emptiest t allowed c rest
    else emptiest t allowed best rest

(* Place onto the emptiest warm core with spare capacity; expand the nest
   with the most recently cooled core only when every warm core is full. *)
let place t ~allowed =
  prune t;
  let best = emptiest t allowed (-1) t.nest in
  if best >= 0 && load_of t best < spill_threshold then best
  else begin
    (* expand: warmest core outside the nest *)
    let warmest = ref (-1) in
    for c = 0 to t.ctx.nr_cpus - 1 do
      if List.mem c allowed && (not (List.mem c t.nest))
         && (!warmest < 0 || t.last_used.(c) > t.last_used.(!warmest))
      then warmest := c
    done;
    if !warmest >= 0 then !warmest
    else if best >= 0 then best
    else match allowed with c :: _ -> c | [] -> 0
  end

let stopped t ~pid ~cpu = if t.running.(cpu) = pid then t.running.(cpu) <- -1

let enqueue t pid sched =
  let cpu = Sched.cpu sched in
  touch t cpu;
  Q.push_back t.queues.(cpu) pid sched

let drop t pid =
  let found = ref Sched.none in
  for cpu = 0 to Array.length t.queues - 1 do
    let tok = Q.remove t.queues.(cpu) pid in
    if not (Sched.is_none tok) then found := tok
  done;
  !found

(* Each hook is a closed [*_locked] function of the state and four
   arguments (unused ones are [()]) run through [Enoki.Lock.locked], so no
   closure is built per call. *)

let select_task_rq_locked t allowed () () () = place t ~allowed

let select_task_rq t ~pid:_ ~waker_cpu:_ ~allowed =
  Enoki.Lock.locked t.lock select_task_rq_locked t allowed () () ()

let enqueue_locked t pid sched () () = enqueue t pid sched

let task_new t ~pid ~runtime:_ ~prio:_ ~sched =
  Enoki.Lock.locked t.lock enqueue_locked t pid sched () ()

let task_wakeup t ~pid ~runtime:_ ~waker_cpu:_ ~sched =
  Enoki.Lock.locked t.lock enqueue_locked t pid sched () ()

let task_blocked_locked t pid cpu () () =
  stopped t ~pid ~cpu;
  ignore (drop t pid)

let task_blocked t ~pid ~runtime:_ ~cpu =
  Enoki.Lock.locked t.lock task_blocked_locked t pid cpu () ()

let requeue_locked t pid cpu sched () =
  stopped t ~pid ~cpu;
  ignore (drop t pid);
  enqueue t pid sched

let task_preempt t ~pid ~runtime:_ ~cpu ~sched =
  Enoki.Lock.locked t.lock requeue_locked t pid cpu sched ()

let task_yield = task_preempt

let task_dead_locked t pid () () () =
  for cpu = 0 to Array.length t.running - 1 do
    stopped t ~pid ~cpu
  done;
  ignore (drop t pid)

let task_dead t ~pid = Enoki.Lock.locked t.lock task_dead_locked t pid () () ()

let task_departed_locked t pid cpu () () =
  stopped t ~pid ~cpu;
  drop t pid

let task_departed t ~pid ~cpu = Enoki.Lock.locked t.lock task_departed_locked t pid cpu () ()

let pick_next_task_locked t cpu curr () () =
  let q = t.queues.(cpu) in
  if Q.is_empty q then begin
    t.running.(cpu) <- Sched.pid curr;
    curr
  end
  else begin
    let pid = Q.pid q (Q.head q) in
    let picked = Q.pop_front q in
    t.running.(cpu) <- pid;
    touch t cpu;
    if (not (Sched.is_none curr)) && Sched.pid curr <> pid then Q.push_back q (Sched.pid curr) curr;
    picked
  end

let pick_next_task t ~cpu ~curr ~curr_runtime:_ =
  Enoki.Lock.locked t.lock pick_next_task_locked t cpu curr () ()

let pnt_err t ~cpu:_ ~pid ~err:_ ~sched =
  if not (Sched.is_none sched) then Enoki.Lock.locked t.lock enqueue_locked t pid sched () ()

(* work conservation: an idle core may still steal from an overloaded nest
   core — consolidation must not strand runnable work *)
let balance_locked t cpu () () () =
  if load_of t cpu > 0 then -1
  else begin
    let victim = ref (-1) and victim_len = ref 0 in
    for other = 0 to Array.length t.queues - 1 do
      let len = Q.length t.queues.(other) in
      if other <> cpu && t.running.(other) >= 0 && len >= spill_threshold
         && (!victim < 0 || len > !victim_len)
      then begin
        victim := other;
        victim_len := len
      end
    done;
    if !victim < 0 then -1 else Q.pid t.queues.(!victim) (Q.head t.queues.(!victim))
  end

let balance t ~cpu = Enoki.Lock.locked t.lock balance_locked t cpu () () ()

let migrate_task_rq_locked t pid sched () () =
  let old = drop t pid in
  enqueue t pid sched;
  old

let migrate_task_rq t ~pid ~sched =
  Enoki.Lock.locked t.lock migrate_task_rq_locked t pid sched () ()

let task_tick_locked t cpu queued () () =
  if queued && not (Q.is_empty t.queues.(cpu)) then t.ctx.resched ~cpu

let task_tick t ~cpu ~queued = Enoki.Lock.locked t.lock task_tick_locked t cpu queued () ()

type Enoki.Upgrade.transfer +=
  | Nest_state of {
      queues : Sched.t Q.t array;
      running : int array;
      last_used : int array;
      nest : int list;
    }

let reregister_prepare t =
  Some (Nest_state { queues = t.queues; running = t.running; last_used = t.last_used; nest = t.nest })

let reregister_init (ctx : Enoki.Ctx.t) transfer =
  match transfer with
  | None -> create ctx
  | Some (Nest_state { queues; running; last_used; nest }) ->
    { ctx; queues; running; last_used; nest; lock = Enoki.Lock.create ctx.locks }
  | Some _ -> raise (Enoki.Upgrade.Incompatible "nest: unrecognised transfer state")

let nest_cpus t = Enoki.Lock.with_lock t.lock (fun () -> List.sort_uniq Int.compare t.nest)

module Private = struct
  let nest_cpus = nest_cpus
end
