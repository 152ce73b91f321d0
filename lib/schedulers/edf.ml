module Sched = Enoki.Schedulable

let default_relative_deadline = Kernsim.Time.ms 10

module Key = struct
  type t = int * int (* absolute deadline, pid *)

  let compare (d1, p1) (d2, p2) =
    match Int.compare d1 d2 with 0 -> Int.compare p1 p2 | c -> c
end

module Tree = Ds.Rbtree.Make (Key)

type ent = { mutable relative : int; mutable abs_deadline : int }

type t = {
  ctx : Enoki.Ctx.t;
  mutable queue : Sched.t Tree.t; (* global EDF order of waiting tasks *)
  ents : (int, ent) Hashtbl.t;
  running : (int * int) option array; (* per-cpu (pid, abs_deadline) *)
  mutable misses : int;
  lock : Enoki.Lock.t;
}

include Enoki.Sched_trait.Defaults (struct type nonrec t = t end)

let name = "edf"

let create (ctx : Enoki.Ctx.t) =
  {
    ctx;
    queue = Tree.empty;
    ents = Hashtbl.create 64;
    running = Array.make ctx.nr_cpus None;
    misses = 0;
    lock = Enoki.Lock.create ~name:"edf" ();
  }

let get_policy t = t.ctx.policy

let ent_of t pid =
  match Hashtbl.find_opt t.ents pid with
  | Some e -> e
  | None ->
    let e = { relative = default_relative_deadline; abs_deadline = max_int } in
    Hashtbl.replace t.ents pid e;
    e

let enqueue t ~pid sched ~fresh_deadline =
  let e = ent_of t pid in
  if fresh_deadline then e.abs_deadline <- t.ctx.now () + e.relative;
  t.queue <- Tree.add (e.abs_deadline, pid) sched t.queue

let remove t pid =
  match Hashtbl.find_opt t.ents pid with
  | None -> None
  | Some e -> (
    match Tree.find_opt (e.abs_deadline, pid) t.queue with
    | Some sched ->
      t.queue <- Tree.remove (e.abs_deadline, pid) t.queue;
      Some sched
    | None -> None)

let task_new t ~pid ~runtime:_ ~prio:_ ~sched =
  Enoki.Lock.with_lock t.lock (fun () -> enqueue t ~pid sched ~fresh_deadline:true)

(* each wakeup opens a new deadline window *)
let task_wakeup t ~pid ~runtime:_ ~waker_cpu:_ ~sched =
  Enoki.Lock.with_lock t.lock (fun () -> enqueue t ~pid sched ~fresh_deadline:true)

let task_blocked t ~pid ~runtime:_ ~cpu =
  Enoki.Lock.with_lock t.lock (fun () ->
      (match t.running.(cpu) with Some (p, _) when p = pid -> t.running.(cpu) <- None | _ -> ());
      ignore (remove t pid))

(* preemption keeps the current window: the task goes back in EDF order *)
let requeue t ~pid ~cpu ~sched =
  Enoki.Lock.with_lock t.lock (fun () ->
      (match t.running.(cpu) with Some (p, _) when p = pid -> t.running.(cpu) <- None | _ -> ());
      ignore (remove t pid);
      enqueue t ~pid sched ~fresh_deadline:false)

let task_preempt t ~pid ~runtime:_ ~cpu ~sched = requeue t ~pid ~cpu ~sched

let task_yield t ~pid ~runtime:_ ~cpu ~sched = requeue t ~pid ~cpu ~sched

let task_dead t ~pid =
  Enoki.Lock.with_lock t.lock (fun () ->
      Array.iteri
        (fun cpu r -> match r with Some (p, _) when p = pid -> t.running.(cpu) <- None | _ -> ())
        t.running;
      ignore (remove t pid);
      Hashtbl.remove t.ents pid)

let task_departed t ~pid ~cpu =
  Enoki.Lock.with_lock t.lock (fun () ->
      (match t.running.(cpu) with Some (p, _) when p = pid -> t.running.(cpu) <- None | _ -> ());
      let tok = remove t pid in
      Hashtbl.remove t.ents pid;
      tok)

let select_task_rq t ~pid:_ ~waker_cpu ~allowed =
  Enoki.Lock.with_lock t.lock (fun () ->
      match List.find_opt (fun c -> t.running.(c) = None) allowed with
      | Some c -> c
      | None -> ( match allowed with c :: _ -> c | [] -> waker_cpu))

let pick_next_task t ~cpu ~curr ~curr_runtime:_ =
  Enoki.Lock.with_lock t.lock (fun () ->
      (* earliest-deadline waiting task that already sits on this rq *)
      let found = ref None in
      (try
         Tree.iter
           (fun (dl, pid) sched ->
             if !found = None && Sched.cpu sched = cpu then begin
               found := Some (dl, pid, sched);
               raise Exit
             end)
           t.queue
       with Exit -> ());
      match !found with
      | Some (dl, pid, sched) ->
        t.queue <- Tree.remove (dl, pid) t.queue;
        t.running.(cpu) <- Some (pid, dl);
        if dl < t.ctx.now () then t.misses <- t.misses + 1;
        Some sched
      | None ->
        t.running.(cpu) <- Option.map (fun c -> (Sched.pid c, max_int)) curr;
        curr)

let pnt_err t ~cpu:_ ~pid ~err:_ ~sched =
  match sched with
  | Some tok ->
    Enoki.Lock.with_lock t.lock (fun () -> enqueue t ~pid tok ~fresh_deadline:false)
  | None -> ()

(* the global head migrates to any cpu running a later deadline or idling
   behind a busy rq, as Shinjuku's balance does for FCFS order *)
let balance t ~cpu =
  Enoki.Lock.with_lock t.lock (fun () ->
      if t.running.(cpu) <> None then None
      else
        match Tree.min_binding_opt t.queue with
        | Some ((_, pid), sched) when Sched.cpu sched <> cpu -> (
          match t.running.(Sched.cpu sched) with Some _ -> Some pid | None -> None)
        | Some _ | None -> None)

let migrate_task_rq t ~pid ~sched =
  Enoki.Lock.with_lock t.lock (fun () ->
      let old = remove t pid in
      enqueue t ~pid sched ~fresh_deadline:false;
      old)

(* preempt whenever a waiting task's deadline beats the running one's *)
let task_tick t ~cpu ~queued =
  Enoki.Lock.with_lock t.lock (fun () ->
      if queued then
        match (t.running.(cpu), Tree.min_binding_opt t.queue) with
        | Some (_, running_dl), Some ((waiting_dl, _), _) when waiting_dl < running_dl ->
          t.ctx.resched ~cpu
        | _ -> ())

let parse_hint t ~pid:_ ~hint =
  match hint with
  | Hints.Deadline { pid; relative } ->
    Enoki.Lock.with_lock t.lock (fun () -> (ent_of t pid).relative <- max 1 relative)
  | _ -> ()

type Enoki.Upgrade.transfer +=
  | Edf_state of {
      queue : Sched.t Tree.t;
      ents : (int, ent) Hashtbl.t;
      running : (int * int) option array;
    }

let reregister_prepare t = Some (Edf_state { queue = t.queue; ents = t.ents; running = t.running })

let reregister_init (ctx : Enoki.Ctx.t) transfer =
  match transfer with
  | None -> create ctx
  | Some (Edf_state { queue; ents; running }) ->
    { ctx; queue; ents; running; misses = 0; lock = Enoki.Lock.create ~name:"edf" () }
  | Some _ -> raise (Enoki.Upgrade.Incompatible "edf: unrecognised transfer state")

let deadline_misses t = t.misses

let relative_deadline_of t ~pid =
  match Hashtbl.find_opt t.ents pid with
  | Some e when e.relative <> default_relative_deadline -> Some e.relative
  | Some _ | None -> None
