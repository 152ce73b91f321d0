module Sched = Enoki.Schedulable

module Key = struct
  type t = int * int (* priority, arrival sequence *)

  let compare (p1, s1) (p2, s2) =
    match Int.compare p1 p2 with 0 -> Int.compare s1 s2 | c -> c
end

module Tree = Ds.Rbtree.Make (Key)

type ent = { mutable prio : int; mutable key : (int * int) option (* present in tree *) }

type t = {
  ctx : Enoki.Ctx.t;
  queues : (int * Sched.t) Tree.t array; (* per-cpu queues of (pid, token) *)
  running : (int * int) option array; (* per-cpu (pid, prio) *)
  ents : (int, ent) Hashtbl.t;
  mutable seq : int;
  lock : Enoki.Lock.t;
}

include Enoki.Sched_trait.Defaults (struct type nonrec t = t end)

let name = "rt-fifo"

let create (ctx : Enoki.Ctx.t) =
  {
    ctx;
    queues = Array.make ctx.nr_cpus Tree.empty;
    running = Array.make ctx.nr_cpus None;
    ents = Hashtbl.create 64;
    seq = 0;
    lock = Enoki.Lock.create ~name:"rt" ();
  }

let get_policy t = t.ctx.policy

let ent_of t pid ~prio =
  match Hashtbl.find_opt t.ents pid with
  | Some e -> e
  | None ->
    let e = { prio; key = None } in
    Hashtbl.replace t.ents pid e;
    e

let enqueue t ~cpu ~pid sched =
  let e = ent_of t pid ~prio:0 in
  t.seq <- t.seq + 1;
  let key = (e.prio, t.seq) in
  e.key <- Some key;
  t.queues.(cpu) <- Tree.add key (pid, sched) t.queues.(cpu);
  (* strict preemption: an urgent arrival kicks a less urgent runner *)
  match t.running.(cpu) with
  | Some (_, running_prio) when e.prio < running_prio -> t.ctx.resched ~cpu
  | Some _ | None -> ()

let remove t pid =
  match Hashtbl.find_opt t.ents pid with
  | Some ({ key = Some key; _ } as e) ->
    let found = ref None in
    Array.iteri
      (fun cpu q ->
        match Tree.find_opt key q with
        | Some (p, sched) when p = pid ->
          t.queues.(cpu) <- Tree.remove key q;
          found := Some sched
        | Some _ | None -> ())
      t.queues;
    e.key <- None;
    !found
  | Some _ | None -> None

let task_new t ~pid ~runtime:_ ~prio ~sched =
  Enoki.Lock.with_lock t.lock (fun () ->
      (ent_of t pid ~prio).prio <- prio;
      enqueue t ~cpu:(Sched.cpu sched) ~pid sched)

let task_wakeup t ~pid ~runtime:_ ~waker_cpu:_ ~sched =
  Enoki.Lock.with_lock t.lock (fun () -> enqueue t ~cpu:(Sched.cpu sched) ~pid sched)

let clear_running t pid =
  Array.iteri
    (fun cpu r -> match r with Some (p, _) when p = pid -> t.running.(cpu) <- None | _ -> ())
    t.running

let task_blocked t ~pid ~runtime:_ ~cpu:_ =
  Enoki.Lock.with_lock t.lock (fun () ->
      clear_running t pid;
      ignore (remove t pid))

let requeue t ~pid ~sched =
  Enoki.Lock.with_lock t.lock (fun () ->
      clear_running t pid;
      ignore (remove t pid);
      enqueue t ~cpu:(Sched.cpu sched) ~pid sched)

let task_preempt t ~pid ~runtime:_ ~cpu:_ ~sched = requeue t ~pid ~sched

let task_yield t ~pid ~runtime:_ ~cpu:_ ~sched = requeue t ~pid ~sched

let task_dead t ~pid =
  Enoki.Lock.with_lock t.lock (fun () ->
      clear_running t pid;
      ignore (remove t pid);
      Hashtbl.remove t.ents pid)

let task_departed t ~pid ~cpu:_ =
  Enoki.Lock.with_lock t.lock (fun () ->
      clear_running t pid;
      let tok = remove t pid in
      Hashtbl.remove t.ents pid;
      tok)

let select_task_rq t ~pid:_ ~waker_cpu ~allowed =
  Enoki.Lock.with_lock t.lock (fun () ->
      (* lowest-priority-pressure cpu: idle first, else the one whose
         runner is least urgent *)
      match List.find_opt (fun c -> t.running.(c) = None) allowed with
      | Some c -> c
      | None -> (
        let score c = match t.running.(c) with Some (_, p) -> p | None -> max_int in
        match allowed with
        | [] -> waker_cpu
        | c0 :: _ -> List.fold_left (fun a c -> if score c > score a then c else a) c0 allowed))

let pick_next_task t ~cpu ~curr ~curr_runtime:_ =
  Enoki.Lock.with_lock t.lock (fun () ->
      match Tree.min_binding_opt t.queues.(cpu) with
      | Some (((prio, _) as key), (pid, sched)) ->
        t.queues.(cpu) <- Tree.remove key t.queues.(cpu);
        (match Hashtbl.find_opt t.ents pid with Some e -> e.key <- None | None -> ());
        t.running.(cpu) <- Some (pid, prio);
        Some sched
      | None ->
        t.running.(cpu) <- Option.map (fun c -> (Sched.pid c, 0)) curr;
        curr)

let pnt_err t ~cpu:_ ~pid ~err:_ ~sched =
  match sched with
  | Some tok ->
    Enoki.Lock.with_lock t.lock (fun () -> enqueue t ~cpu:(Sched.cpu tok) ~pid tok)
  | None -> ()

let balance t ~cpu =
  Enoki.Lock.with_lock t.lock (fun () ->
      if t.running.(cpu) <> None || not (Tree.is_empty t.queues.(cpu)) then None
      else begin
        (* pull the most urgent waiter stuck behind a busy cpu *)
        let best = ref None in
        Array.iteri
          (fun other q ->
            if other <> cpu && t.running.(other) <> None then
              match Tree.min_binding_opt q with
              | Some ((prio, _), (pid, _)) -> (
                match !best with
                | Some (bp, _) when bp <= prio -> ()
                | _ -> best := Some (prio, pid))
              | None -> ())
          t.queues;
        Option.map snd !best
      end)

let migrate_task_rq t ~pid ~sched =
  Enoki.Lock.with_lock t.lock (fun () ->
      let old = remove t pid in
      enqueue t ~cpu:(Sched.cpu sched) ~pid sched;
      old)

(* no time slicing: the tick only matters if a more urgent task waits *)
let task_tick t ~cpu ~queued =
  Enoki.Lock.with_lock t.lock (fun () ->
      if queued then
        match (t.running.(cpu), Tree.min_binding_opt t.queues.(cpu)) with
        | Some (_, running_prio), Some ((waiting_prio, _), _) when waiting_prio < running_prio ->
          t.ctx.resched ~cpu
        | _ -> ())

let task_prio_changed t ~pid ~prio =
  Enoki.Lock.with_lock t.lock (fun () ->
      match Hashtbl.find_opt t.ents pid with
      | Some e -> (
        match e.key with
        | Some _ -> (
          (* re-queue under the new priority *)
          match remove t pid with
          | Some sched ->
            e.prio <- prio;
            enqueue t ~cpu:(Sched.cpu sched) ~pid sched
          | None -> e.prio <- prio)
        | None -> e.prio <- prio)
      | None -> ())

type Enoki.Upgrade.transfer +=
  | Rt_state of {
      queues : (int * Sched.t) Tree.t array;
      running : (int * int) option array;
      ents : (int, ent) Hashtbl.t;
      seq : int;
    }

let reregister_prepare t =
  Some (Rt_state { queues = t.queues; running = t.running; ents = t.ents; seq = t.seq })

let reregister_init (ctx : Enoki.Ctx.t) transfer =
  match transfer with
  | None -> create ctx
  | Some (Rt_state { queues; running; ents; seq }) ->
    { ctx; queues; running; ents; seq; lock = Enoki.Lock.create ~name:"rt" () }
  | Some _ -> raise (Enoki.Upgrade.Incompatible "rt-fifo: unrecognised transfer state")

let queue_length t ~cpu = Tree.cardinal t.queues.(cpu)
