module Sched = Enoki.Schedulable

(* a core with this many runnable tasks stops attracting its group *)
let overload_threshold = 16

type t = {
  ctx : Enoki.Ctx.t;
  queues : (int * Sched.t) Ds.Deque.t array;
  running : int option array;
  pid_group : (int, int) Hashtbl.t;
  pid_cpu : (int, int) Hashtbl.t; (* last placement, for stability *)
  group_cpu : (int, int) Hashtbl.t;
  mutable next_group_cpu : int;
  mutable hints_seen : int;
  rng : Stats.Prng.t;
  lock : Enoki.Lock.t;
}

include Enoki.Sched_trait.Defaults (struct type nonrec t = t end)

let name = "locality"

let create (ctx : Enoki.Ctx.t) =
  {
    ctx;
    queues = Array.init ctx.nr_cpus (fun _ -> Ds.Deque.create ());
    running = Array.make ctx.nr_cpus None;
    pid_group = Hashtbl.create 64;
    pid_cpu = Hashtbl.create 64;
    group_cpu = Hashtbl.create 16;
    next_group_cpu = 0;
    hints_seen = 0;
    rng = Stats.Prng.create ~seed:0x10c;
    lock = Enoki.Lock.create ~name:"locality-rq" ();
  }

let get_policy t = t.ctx.policy

let load_of t cpu =
  Ds.Deque.length t.queues.(cpu) + if t.running.(cpu) = None then 0 else 1

(* random placement with two choices: random enough to be the Table 6
   no-hints baseline, loaded-core-avoiding enough for Table 3 *)
let random_place t ~allowed =
  match allowed with
  | [] -> 0
  | l ->
    let n = List.length l in
    let a = List.nth l (Stats.Prng.int t.rng n) and b = List.nth l (Stats.Prng.int t.rng n) in
    if load_of t a <= load_of t b then a else b

let place t ~pid ~allowed =
  let ok cpu = List.mem cpu allowed in
  match Hashtbl.find_opt t.pid_group pid with
  | Some group -> (
    match Hashtbl.find_opt t.group_cpu group with
    | Some cpu when ok cpu && load_of t cpu < overload_threshold -> cpu
    | Some _ | None -> random_place t ~allowed)
  | None -> (
    (* unhinted: stay where we last ran unless that core has work queued *)
    match Hashtbl.find_opt t.pid_cpu pid with
    | Some prev when ok prev && load_of t prev = 0 -> prev
    | Some _ | None -> random_place t ~allowed)

let note_placement t ~pid ~cpu = Hashtbl.replace t.pid_cpu pid cpu

let select_task_rq t ~pid ~waker_cpu:_ ~allowed =
  Enoki.Lock.with_lock t.lock (fun () -> place t ~pid ~allowed)

let enqueue t ~pid sched =
  note_placement t ~pid ~cpu:(Sched.cpu sched);
  Ds.Deque.push_back t.queues.(Sched.cpu sched) (pid, sched)

let task_new t ~pid ~runtime:_ ~prio:_ ~sched =
  Enoki.Lock.with_lock t.lock (fun () -> enqueue t ~pid sched)

let task_wakeup t ~pid ~runtime:_ ~waker_cpu:_ ~sched =
  Enoki.Lock.with_lock t.lock (fun () -> enqueue t ~pid sched)

let drop_everywhere t pid =
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
      ignore (drop_everywhere t pid))

let requeue t ~pid ~cpu ~sched =
  Enoki.Lock.with_lock t.lock (fun () ->
      if t.running.(cpu) = Some pid then t.running.(cpu) <- None;
      ignore (drop_everywhere t pid);
      enqueue t ~pid sched)

let task_preempt t ~pid ~runtime:_ ~cpu ~sched = requeue t ~pid ~cpu ~sched

let task_yield t ~pid ~runtime:_ ~cpu ~sched = requeue t ~pid ~cpu ~sched

let task_dead t ~pid =
  Enoki.Lock.with_lock t.lock (fun () ->
      Array.iteri (fun cpu r -> if r = Some pid then t.running.(cpu) <- None) t.running;
      ignore (drop_everywhere t pid);
      Hashtbl.remove t.pid_group pid;
      Hashtbl.remove t.pid_cpu pid)

let task_departed t ~pid ~cpu =
  Enoki.Lock.with_lock t.lock (fun () ->
      if t.running.(cpu) = Some pid then t.running.(cpu) <- None;
      Hashtbl.remove t.pid_group pid;
      drop_everywhere t pid)

let pick_next_task t ~cpu ~curr ~curr_runtime:_ =
  Enoki.Lock.with_lock t.lock (fun () ->
      match Ds.Deque.pop_front t.queues.(cpu) with
      | Some (pid, sched) ->
        t.running.(cpu) <- Some pid;
        (match curr with
        | Some c when Sched.pid c <> pid -> enqueue t ~pid:(Sched.pid c) c
        | Some _ | None -> ());
        Some sched
      | None ->
        t.running.(cpu) <- Option.map Sched.pid curr;
        curr)

let pnt_err t ~cpu:_ ~pid ~err:_ ~sched =
  match sched with
  | Some tok -> Enoki.Lock.with_lock t.lock (fun () -> enqueue t ~pid tok)
  | None -> ()

let migrate_task_rq t ~pid ~sched =
  Enoki.Lock.with_lock t.lock (fun () ->
      let old = drop_everywhere t pid in
      enqueue t ~pid sched;
      old)

(* round-robin slice so co-located groups share their core fairly *)
let task_tick t ~cpu ~queued =
  Enoki.Lock.with_lock t.lock (fun () ->
      if queued && Ds.Deque.length t.queues.(cpu) > 0 then t.ctx.resched ~cpu)

let select_group_cpu t =
  (* spread groups across distinct cores *)
  let cpu = t.next_group_cpu in
  t.next_group_cpu <- (t.next_group_cpu + 1) mod Array.length t.queues;
  cpu

let parse_hint t ~pid:_ ~hint =
  match hint with
  | Hints.Locality { pid; group } ->
    Enoki.Lock.with_lock t.lock (fun () ->
        t.hints_seen <- t.hints_seen + 1;
        Hashtbl.replace t.pid_group pid group;
        if not (Hashtbl.mem t.group_cpu group) then
          Hashtbl.replace t.group_cpu group (select_group_cpu t))
  | _ -> ()

type Enoki.Upgrade.transfer +=
  | Locality_state of {
      queues : (int * Sched.t) Ds.Deque.t array;
      running : int option array;
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

let cpu_of_group t ~group = Hashtbl.find_opt t.group_cpu group

let hints_seen t = t.hints_seen
