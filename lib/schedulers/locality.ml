module Sched = Enoki.Schedulable
module Q = Ds.Pid_fifo

(* a core with this many runnable tasks stops attracting its group *)
let overload_threshold = 16

type t = {
  ctx : Enoki.Ctx.t;
  queues : Sched.t Q.t array;
  running : int array; (* -1 = none *)
  pid_group : (int, int) Hashtbl.t;
  pid_cpu : (int, int) Hashtbl.t; (* last placement, for stability *)
  group_cpu : (int, int) Hashtbl.t;
  mutable next_group_cpu : int;
  rng : Stats.Prng.t;
  lock : Enoki.Lock.t;
}

include Enoki.Sched_trait.Defaults (struct type nonrec t = t end)

let name = "locality"

let create (ctx : Enoki.Ctx.t) =
  {
    ctx;
    queues = Array.init ctx.nr_cpus (fun _ -> Q.create ~dummy:Sched.none);
    running = Array.make ctx.nr_cpus (-1);
    pid_group = Hashtbl.create 64;
    pid_cpu = Hashtbl.create 64;
    group_cpu = Hashtbl.create 16;
    next_group_cpu = 0;
    rng = Stats.Prng.create ~seed:0x10c;
    lock = Enoki.Lock.create ();
  }

let get_policy t = t.ctx.policy

let load_of t cpu = Q.length t.queues.(cpu) + if t.running.(cpu) < 0 then 0 else 1

(* random placement with two choices: random enough to be the Table 6
   no-hints baseline, loaded-core-avoiding enough for Table 3 *)
let random_place t ~allowed =
  match allowed with
  | [] -> 0
  | l ->
    let n = List.length l in
    let a = List.nth l (Stats.Prng.int t.rng n) and b = List.nth l (Stats.Prng.int t.rng n) in
    if load_of t a <= load_of t b then a else b

(* [Hashtbl.find] rather than [find_opt]: a lookup boxes nothing *)
let place t ~pid ~allowed =
  match Hashtbl.find t.pid_group pid with
  | group -> (
    match Hashtbl.find t.group_cpu group with
    | cpu when List.mem cpu allowed && load_of t cpu < overload_threshold -> cpu
    | _ | (exception Not_found) -> random_place t ~allowed)
  | exception Not_found -> (
    (* unhinted: stay where we last ran unless that core has work queued *)
    match Hashtbl.find t.pid_cpu pid with
    | prev when List.mem prev allowed && load_of t prev = 0 -> prev
    | _ | (exception Not_found) -> random_place t ~allowed)

let stopped t ~pid ~cpu = if t.running.(cpu) = pid then t.running.(cpu) <- -1

let enqueue t pid sched =
  let cpu = Sched.cpu sched in
  Hashtbl.replace t.pid_cpu pid cpu;
  Q.push_back t.queues.(cpu) pid sched

let drop_everywhere t pid =
  let found = ref Sched.none in
  for cpu = 0 to Array.length t.queues - 1 do
    let tok = Q.remove t.queues.(cpu) pid in
    if not (Sched.is_none tok) then found := tok
  done;
  !found

(* Each hook is a closed [*_locked] function of the state and four
   arguments (unused ones are [()]) run through [Enoki.Lock.locked], so no
   closure is built per call. *)

let select_task_rq_locked t pid allowed () () = place t ~pid ~allowed

let select_task_rq t ~pid ~waker_cpu:_ ~allowed =
  Enoki.Lock.locked t.lock select_task_rq_locked t pid allowed () ()

let enqueue_locked t pid sched () () = enqueue t pid sched

let task_new t ~pid ~runtime:_ ~prio:_ ~sched =
  Enoki.Lock.locked t.lock enqueue_locked t pid sched () ()

let task_wakeup t ~pid ~runtime:_ ~waker_cpu:_ ~sched =
  Enoki.Lock.locked t.lock enqueue_locked t pid sched () ()

let task_blocked_locked t pid cpu () () =
  stopped t ~pid ~cpu;
  ignore (drop_everywhere t pid)

let task_blocked t ~pid ~runtime:_ ~cpu =
  Enoki.Lock.locked t.lock task_blocked_locked t pid cpu () ()

let requeue_locked t pid cpu sched () =
  stopped t ~pid ~cpu;
  ignore (drop_everywhere t pid);
  enqueue t pid sched

let task_preempt t ~pid ~runtime:_ ~cpu ~sched =
  Enoki.Lock.locked t.lock requeue_locked t pid cpu sched ()

let task_yield = task_preempt

let task_dead_locked t pid () () () =
  for cpu = 0 to Array.length t.running - 1 do
    stopped t ~pid ~cpu
  done;
  ignore (drop_everywhere t pid);
  Hashtbl.remove t.pid_group pid;
  Hashtbl.remove t.pid_cpu pid

let task_dead t ~pid = Enoki.Lock.locked t.lock task_dead_locked t pid () () ()

let task_departed_locked t pid cpu () () =
  stopped t ~pid ~cpu;
  Hashtbl.remove t.pid_group pid;
  drop_everywhere t pid

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
    if (not (Sched.is_none curr)) && Sched.pid curr <> pid then enqueue t (Sched.pid curr) curr;
    picked
  end

let pick_next_task t ~cpu ~curr ~curr_runtime:_ =
  Enoki.Lock.locked t.lock pick_next_task_locked t cpu curr () ()

let pnt_err t ~cpu:_ ~pid ~err:_ ~sched =
  if not (Sched.is_none sched) then Enoki.Lock.locked t.lock enqueue_locked t pid sched () ()

let migrate_task_rq_locked t pid sched () () =
  let old = drop_everywhere t pid in
  enqueue t pid sched;
  old

let migrate_task_rq t ~pid ~sched =
  Enoki.Lock.locked t.lock migrate_task_rq_locked t pid sched () ()

(* round-robin slice so co-located groups share their core fairly *)
let task_tick_locked t cpu queued () () =
  if queued && not (Q.is_empty t.queues.(cpu)) then t.ctx.resched ~cpu

let task_tick t ~cpu ~queued = Enoki.Lock.locked t.lock task_tick_locked t cpu queued () ()

let select_group_cpu t =
  (* spread groups across distinct cores *)
  let cpu = t.next_group_cpu in
  t.next_group_cpu <- (t.next_group_cpu + 1) mod Array.length t.queues;
  cpu

let parse_hint t ~pid:_ ~hint =
  match hint with
  | Hints.Locality { pid; group } ->
    Enoki.Lock.with_lock t.lock (fun () ->
        Hashtbl.replace t.pid_group pid group;
        if not (Hashtbl.mem t.group_cpu group) then
          Hashtbl.replace t.group_cpu group (select_group_cpu t))
  | _ -> ()

type Enoki.Upgrade.transfer +=
  | Locality_state of {
      queues : Sched.t Q.t array;
      running : int array;
      pid_group : (int, int) Hashtbl.t;
      group_cpu : (int, int) Hashtbl.t;
    }

let reregister_prepare t =
  Some
    (Locality_state
       { queues = t.queues; running = t.running; pid_group = t.pid_group; group_cpu = t.group_cpu })

let reregister_init (ctx : Enoki.Ctx.t) transfer =
  match transfer with
  | None -> create ctx
  | Some (Locality_state { queues; running; pid_group; group_cpu }) ->
    let next_group_cpu = Hashtbl.length group_cpu mod max 1 ctx.nr_cpus in
    { (create ctx) with queues; running; pid_group; group_cpu; next_group_cpu }
  | Some _ -> raise (Enoki.Upgrade.Incompatible "locality: unrecognised transfer state")
