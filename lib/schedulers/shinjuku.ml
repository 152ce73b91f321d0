module Sched = Enoki.Schedulable

let default_slice = Kernsim.Time.us 10

type t = {
  ctx : Enoki.Ctx.t;
  slice : Kernsim.Time.ns;
  queue : (int * Sched.t) Ds.Deque.t; (* global FCFS of (pid, token) *)
  running : int option array; (* per-cpu running pid (our picks) *)
  mutable rr_cpu : int; (* round-robin pointer for initial placement *)
  lock : Enoki.Lock.t;
}

include Enoki.Sched_trait.Defaults (struct type nonrec t = t end)

let name = "shinjuku"

let make (ctx : Enoki.Ctx.t) ~slice =
  {
    ctx;
    slice;
    queue = Ds.Deque.create ();
    running = Array.make ctx.nr_cpus None;
    rr_cpu = 0;
    lock = Enoki.Lock.create ~name:"shinjuku-q" ();
  }

let create ctx = make ctx ~slice:default_slice

let get_policy t = t.ctx.policy

(* every operation re-arms the preemption timer, as §5.2 notes ("our
   version of the Shinjuku scheduler starts a reschedule timer on every
   operation") *)
let arm t ~cpu = t.ctx.set_timer ~cpu t.slice

let enqueue_back t ~pid sched = Ds.Deque.push_back t.queue (pid, sched)

let task_new t ~pid ~runtime:_ ~prio:_ ~sched =
  Enoki.Lock.with_lock t.lock (fun () ->
      enqueue_back t ~pid sched;
      ignore (arm : t -> cpu:int -> unit))

let task_wakeup t ~pid ~runtime:_ ~waker_cpu ~sched =
  Enoki.Lock.with_lock t.lock (fun () ->
      enqueue_back t ~pid sched;
      arm t ~cpu:waker_cpu)

let task_blocked t ~pid ~runtime:_ ~cpu =
  Enoki.Lock.with_lock t.lock (fun () ->
      if t.running.(cpu) = Some pid then t.running.(cpu) <- None;
      ignore (Ds.Deque.remove_first t.queue ~f:(fun (p, _) -> p = pid)))

let requeue t ~pid ~cpu ~sched =
  Enoki.Lock.with_lock t.lock (fun () ->
      if t.running.(cpu) = Some pid then t.running.(cpu) <- None;
      ignore (Ds.Deque.remove_first t.queue ~f:(fun (p, _) -> p = pid));
      enqueue_back t ~pid sched)

let task_preempt t ~pid ~runtime:_ ~cpu ~sched = requeue t ~pid ~cpu ~sched

let task_yield t ~pid ~runtime:_ ~cpu ~sched = requeue t ~pid ~cpu ~sched

let task_dead t ~pid =
  Enoki.Lock.with_lock t.lock (fun () ->
      Array.iteri (fun cpu r -> if r = Some pid then t.running.(cpu) <- None) t.running;
      ignore (Ds.Deque.remove_first t.queue ~f:(fun (p, _) -> p = pid)))

let task_departed t ~pid ~cpu =
  Enoki.Lock.with_lock t.lock (fun () ->
      if t.running.(cpu) = Some pid then t.running.(cpu) <- None;
      Option.map snd (Ds.Deque.remove_first t.queue ~f:(fun (p, _) -> p = pid)))

(* initial/wakeup run-queue: round-robin across cpus; the global FCFS queue
   plus balance-time migration does the real placement *)
let select_task_rq t ~pid:_ ~waker_cpu:_ ~allowed =
  Enoki.Lock.with_lock t.lock (fun () ->
      (* prefer an allowed cpu with nothing running, else round-robin the
         allowed set *)
      match List.find_opt (fun c -> t.running.(c) = None) allowed with
      | Some c -> c
      | None -> (
        t.rr_cpu <- t.rr_cpu + 1;
        match allowed with
        | [] -> 0
        | l -> List.nth l (t.rr_cpu mod List.length l)))

(* centralized FCFS: a cpu picking work takes the queue head; if the head
   belongs to another run-queue, balance asks the kernel to migrate it here
   first *)
let balance t ~cpu =
  Enoki.Lock.with_lock t.lock (fun () ->
      if t.running.(cpu) <> None then None
      else
        match Ds.Deque.peek_front t.queue with
        | Some (pid, sched)
          when Sched.cpu sched <> cpu && t.running.(Sched.cpu sched) <> None ->
          (* the head is stuck behind a busy core; pull it here *)
          Some pid
        | Some _ | None -> None)

let migrate_task_rq t ~pid ~sched =
  Enoki.Lock.with_lock t.lock (fun () ->
      match Ds.Deque.remove_first t.queue ~f:(fun (p, _) -> p = pid) with
      | Some (_, old) ->
        (* keep queue position at the front: migration happens for the head *)
        Ds.Deque.push_front t.queue (pid, sched);
        Some old
      | None ->
        enqueue_back t ~pid sched;
        None)

let pick_next_task t ~cpu ~curr ~curr_runtime:_ =
  Enoki.Lock.with_lock t.lock (fun () ->
      arm t ~cpu;
      (* take the first queued task already on this run-queue *)
      match Ds.Deque.remove_first t.queue ~f:(fun (_, s) -> Sched.cpu s = cpu) with
      | Some (pid, sched) ->
        t.running.(cpu) <- Some pid;
        (match curr with
        | Some c when Sched.pid c <> pid -> enqueue_back t ~pid:(Sched.pid c) c
        | Some _ | None -> ());
        Some sched
      | None ->
        t.running.(cpu) <- Option.map Sched.pid curr;
        curr)

let pnt_err t ~cpu:_ ~pid ~err:_ ~sched =
  match sched with
  | Some tok -> Enoki.Lock.with_lock t.lock (fun () -> enqueue_back t ~pid tok)
  | None -> ()

(* the preemption timer: if anything is waiting, preempt the current task *)
let task_tick t ~cpu ~queued =
  Enoki.Lock.with_lock t.lock (fun () ->
      if queued && Ds.Deque.length t.queue > 0 then t.ctx.resched ~cpu;
      if queued then arm t ~cpu)

type Enoki.Upgrade.transfer +=
  | Shinjuku_state of (int * Sched.t) Ds.Deque.t * int option array

let reregister_prepare t = Some (Shinjuku_state (t.queue, t.running))

let reregister_init (ctx : Enoki.Ctx.t) transfer =
  match transfer with
  | None -> create ctx
  | Some (Shinjuku_state (queue, running)) -> { (create ctx) with queue; running }
  | Some _ -> raise (Enoki.Upgrade.Incompatible "shinjuku: unrecognised transfer state")

let queue_depth t = Ds.Deque.length t.queue
