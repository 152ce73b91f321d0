module Sched = Enoki.Schedulable

type t = {
  ctx : Enoki.Ctx.t;
  queues : (int * Sched.t) Ds.Deque.t array; (* per-cpu FCFS of (pid, token) *)
  running : int option array; (* pid running per cpu, by our own picks *)
  lock : Enoki.Lock.t;
}

include Enoki.Sched_trait.Defaults (struct type nonrec t = t end)

let name = "fifo"

let create (ctx : Enoki.Ctx.t) =
  {
    ctx;
    queues = Array.init ctx.nr_cpus (fun _ -> Ds.Deque.create ());
    running = Array.make ctx.nr_cpus None;
    lock = Enoki.Lock.create ~name:"fifo-rq" ();
  }

let get_policy t = t.ctx.policy

let remove_everywhere t pid =
  let found = ref None in
  Array.iter
    (fun q ->
      match Ds.Deque.remove_first q ~f:(fun (p, _) -> p = pid) with
      | Some (_, tok) -> found := Some tok
      | None -> ())
    t.queues;
  !found

let shortest_queue t ~allowed =
  let best = ref (match allowed with c :: _ -> c | [] -> 0) and best_len = ref max_int in
  List.iter
    (fun cpu ->
      if cpu >= 0 && cpu < Array.length t.queues then begin
        let len = Ds.Deque.length t.queues.(cpu) + if t.running.(cpu) = None then 0 else 1 in
        if len < !best_len then begin
          best := cpu;
          best_len := len
        end
      end)
    allowed;
  !best

let select_task_rq t ~pid:_ ~waker_cpu:_ ~allowed =
  Enoki.Lock.with_lock t.lock (fun () -> shortest_queue t ~allowed)

let enqueue t ~cpu ~pid sched =
  Enoki.Lock.with_lock t.lock (fun () -> Ds.Deque.push_back t.queues.(cpu) (pid, sched))

let task_new t ~pid ~runtime:_ ~prio:_ ~sched = enqueue t ~cpu:(Sched.cpu sched) ~pid sched

let task_wakeup t ~pid ~runtime:_ ~waker_cpu:_ ~sched = enqueue t ~cpu:(Sched.cpu sched) ~pid sched

let task_preempt t ~pid ~runtime:_ ~cpu ~sched =
  Enoki.Lock.with_lock t.lock (fun () ->
      if t.running.(cpu) = Some pid then t.running.(cpu) <- None;
      Ds.Deque.push_back t.queues.(cpu) (pid, sched))

let task_yield = task_preempt

let task_blocked t ~pid ~runtime:_ ~cpu =
  Enoki.Lock.with_lock t.lock (fun () ->
      if t.running.(cpu) = Some pid then t.running.(cpu) <- None;
      ignore (remove_everywhere t pid))

let task_dead t ~pid =
  Enoki.Lock.with_lock t.lock (fun () ->
      Array.iteri (fun cpu r -> if r = Some pid then t.running.(cpu) <- None) t.running;
      ignore (remove_everywhere t pid))

let task_departed t ~pid ~cpu =
  Enoki.Lock.with_lock t.lock (fun () ->
      if t.running.(cpu) = Some pid then t.running.(cpu) <- None;
      remove_everywhere t pid)

let pick_next_task t ~cpu ~curr ~curr_runtime:_ =
  Enoki.Lock.with_lock t.lock (fun () ->
      match Ds.Deque.pop_front t.queues.(cpu) with
      | Some (pid, sched) ->
        t.running.(cpu) <- Some pid;
        (* if the kernel handed us a still-runnable current task, requeue it *)
        (match curr with
        | Some c when Sched.pid c <> pid -> Ds.Deque.push_back t.queues.(cpu) (Sched.pid c, c)
        | Some _ | None -> ());
        Some sched
      | None ->
        t.running.(cpu) <- None;
        curr)

let pnt_err t ~cpu ~pid ~err:_ ~sched =
  (* ownership of the rejected token returns to us: requeue so the task is
     not lost *)
  match sched with
  | Some tok -> enqueue t ~cpu ~pid tok
  | None -> ()

let balance t ~cpu =
  Enoki.Lock.with_lock t.lock (fun () ->
      if Ds.Deque.is_empty t.queues.(cpu) && t.running.(cpu) = None then begin
        (* steal the oldest task from the longest queue *)
        let longest = ref None in
        Array.iteri
          (fun other q ->
            if other <> cpu then
              (* only steal from a core that cannot drain itself promptly *)
              let len =
                if t.running.(other) <> None then Ds.Deque.length q
                else if Ds.Deque.length q >= 2 then Ds.Deque.length q
                else 0
              in
              match !longest with
              | Some (_, blen) when blen >= len -> ()
              | _ -> if len > 0 then longest := Some (other, len))
          t.queues;
        match !longest with
        | Some (other, _) -> (
          match Ds.Deque.peek_front t.queues.(other) with
          | Some (pid, _) -> Some pid
          | None -> None)
        | None -> None
      end
      else None)

let migrate_task_rq t ~pid ~sched =
  Enoki.Lock.with_lock t.lock (fun () ->
      let old = remove_everywhere t pid in
      Ds.Deque.push_back t.queues.(Sched.cpu sched) (pid, sched);
      old)

(* live upgrade: export the queues verbatim *)
type Enoki.Upgrade.transfer += Fifo_state of (int * Sched.t) Ds.Deque.t array * int option array

let reregister_prepare t = Some (Fifo_state (t.queues, t.running))

let reregister_init (ctx : Enoki.Ctx.t) transfer =
  match transfer with
  | None -> create ctx
  | Some (Fifo_state (queues, running)) ->
    { ctx; queues; running; lock = Enoki.Lock.create ~name:"fifo-rq" () }
  | Some _ -> raise (Enoki.Upgrade.Incompatible "fifo: unrecognised transfer state")

let queue_length t ~cpu = Ds.Deque.length t.queues.(cpu)
