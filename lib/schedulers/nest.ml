module Sched = Enoki.Schedulable

let warmth_timeout = Kernsim.Time.ms 20

(* a nest core with this many runnable tasks stops attracting wakeups *)
let spill_threshold = 3

type t = {
  ctx : Enoki.Ctx.t;
  queues : (int * Sched.t) Ds.Deque.t array;
  running : int option array;
  last_used : int array; (* per-cpu: last time we placed or ran work there *)
  mutable nest : int list; (* warm cores, most recently used first *)
  lock : Enoki.Lock.t;
}

include Enoki.Sched_trait.Defaults (struct type nonrec t = t end)

let name = "nest"

let create (ctx : Enoki.Ctx.t) =
  {
    ctx;
    queues = Array.init ctx.nr_cpus (fun _ -> Ds.Deque.create ());
    running = Array.make ctx.nr_cpus None;
    last_used = Array.make ctx.nr_cpus min_int;
    nest = [ 0 ];
    lock = Enoki.Lock.create ~name:"nest" ();
  }

let get_policy t = t.ctx.policy

let load_of t cpu = Ds.Deque.length t.queues.(cpu) + if t.running.(cpu) = None then 0 else 1

let touch t cpu =
  t.last_used.(cpu) <- t.ctx.now ();
  if not (List.mem cpu t.nest) then t.nest <- cpu :: t.nest

(* drop cores that have cooled off *)
let prune t =
  let now = t.ctx.now () in
  t.nest <-
    (match
       List.filter
         (fun c -> load_of t c > 0 || now - t.last_used.(c) < warmth_timeout)
         t.nest
     with
    | [] -> [ 0 ]
    | l -> l)

(* Place onto the emptiest warm core with spare capacity; expand the nest
   with the most recently cooled core only when every warm core is full. *)
let place t ~allowed =
  prune t;
  let ok c = List.mem c allowed in
  let candidates = List.filter ok t.nest in
  let best =
    List.fold_left
      (fun acc c ->
        match acc with
        | Some (_, l) when l <= load_of t c -> acc
        | _ -> Some (c, load_of t c))
      None candidates
  in
  match best with
  | Some (c, l) when l < spill_threshold -> c
  | _ -> (
    (* expand: warmest core outside the nest *)
    let outside =
      List.filter (fun c -> ok c && not (List.mem c t.nest)) (List.init t.ctx.nr_cpus Fun.id)
    in
    match outside with
    | [] -> ( match best with Some (c, _) -> c | None -> (match allowed with c :: _ -> c | [] -> 0))
    | l -> List.fold_left (fun a c -> if t.last_used.(c) > t.last_used.(a) then c else a) (List.hd l) l)

let select_task_rq t ~pid:_ ~waker_cpu:_ ~allowed =
  Enoki.Lock.with_lock t.lock (fun () -> place t ~allowed)

let enqueue t ~pid sched =
  let cpu = Sched.cpu sched in
  touch t cpu;
  Ds.Deque.push_back t.queues.(cpu) (pid, sched)

let task_new t ~pid ~runtime:_ ~prio:_ ~sched =
  Enoki.Lock.with_lock t.lock (fun () -> enqueue t ~pid sched)

let task_wakeup t ~pid ~runtime:_ ~waker_cpu:_ ~sched =
  Enoki.Lock.with_lock t.lock (fun () -> enqueue t ~pid sched)

let drop t pid =
  let found = ref None in
  Array.iter
    (fun q ->
      match Ds.Deque.remove_first q ~f:(fun (p, _) -> p = pid) with
      | Some (_, tok) -> found := Some tok
      | None -> ())
    t.queues;
  !found

let task_blocked t ~pid ~runtime:_ ~cpu =
  Enoki.Lock.with_lock t.lock (fun () ->
      if t.running.(cpu) = Some pid then t.running.(cpu) <- None;
      ignore (drop t pid))

let requeue t ~pid ~cpu ~sched =
  Enoki.Lock.with_lock t.lock (fun () ->
      if t.running.(cpu) = Some pid then t.running.(cpu) <- None;
      ignore (drop t pid);
      enqueue t ~pid sched)

let task_preempt t ~pid ~runtime:_ ~cpu ~sched = requeue t ~pid ~cpu ~sched

let task_yield t ~pid ~runtime:_ ~cpu ~sched = requeue t ~pid ~cpu ~sched

let task_dead t ~pid =
  Enoki.Lock.with_lock t.lock (fun () ->
      Array.iteri (fun cpu r -> if r = Some pid then t.running.(cpu) <- None) t.running;
      ignore (drop t pid))

let task_departed t ~pid ~cpu =
  Enoki.Lock.with_lock t.lock (fun () ->
      if t.running.(cpu) = Some pid then t.running.(cpu) <- None;
      drop t pid)

let pick_next_task t ~cpu ~curr ~curr_runtime:_ =
  Enoki.Lock.with_lock t.lock (fun () ->
      match Ds.Deque.pop_front t.queues.(cpu) with
      | Some (pid, sched) ->
        t.running.(cpu) <- Some pid;
        touch t cpu;
        (match curr with
        | Some c when Sched.pid c <> pid -> Ds.Deque.push_back t.queues.(cpu) (Sched.pid c, c)
        | Some _ | None -> ());
        Some sched
      | None ->
        t.running.(cpu) <- Option.map Sched.pid curr;
        curr)

let pnt_err t ~cpu:_ ~pid ~err:_ ~sched =
  match sched with
  | Some tok -> Enoki.Lock.with_lock t.lock (fun () -> enqueue t ~pid tok)
  | None -> ()

(* work conservation: an idle core may still steal from an overloaded nest
   core — consolidation must not strand runnable work *)
let balance t ~cpu =
  Enoki.Lock.with_lock t.lock (fun () ->
      if load_of t cpu > 0 then None
      else
        let victim = ref None in
        Array.iteri
          (fun other q ->
            if other <> cpu && t.running.(other) <> None && Ds.Deque.length q >= spill_threshold
            then
              match !victim with
              | Some (_, n) when n >= Ds.Deque.length q -> ()
              | _ -> victim := Some (other, Ds.Deque.length q))
          t.queues;
        match !victim with
        | Some (other, _) ->
          Option.map (fun (pid, _) -> pid) (Ds.Deque.peek_front t.queues.(other))
        | None -> None)

let migrate_task_rq t ~pid ~sched =
  Enoki.Lock.with_lock t.lock (fun () ->
      let old = drop t pid in
      enqueue t ~pid sched;
      old)

let task_tick t ~cpu ~queued =
  Enoki.Lock.with_lock t.lock (fun () ->
      if queued && Ds.Deque.length t.queues.(cpu) > 0 then t.ctx.resched ~cpu)

type Enoki.Upgrade.transfer +=
  | Nest_state of {
      queues : (int * Sched.t) Ds.Deque.t array;
      running : int option array;
      last_used : int array;
      nest : int list;
    }

let reregister_prepare t =
  Some (Nest_state { queues = t.queues; running = t.running; last_used = t.last_used; nest = t.nest })

let reregister_init (ctx : Enoki.Ctx.t) transfer =
  match transfer with
  | None -> create ctx
  | Some (Nest_state { queues; running; last_used; nest }) ->
    { ctx; queues; running; last_used; nest; lock = Enoki.Lock.create ~name:"nest" () }
  | Some _ -> raise (Enoki.Upgrade.Incompatible "nest: unrecognised transfer state")

let nest_cpus t = Enoki.Lock.with_lock t.lock (fun () -> List.sort_uniq Int.compare t.nest)
