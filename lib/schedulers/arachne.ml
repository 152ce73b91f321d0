module Sched = Enoki.Schedulable

(* core 0 is left to the rest of the system (background tasks, CFS) *)
let first_managed_cpu = 1

type activation = {
  slot : int;
  pid : int;
  mutable token : Sched.t; (* held while the activation is runnable, else none *)
  mutable cpu : int option; (* granted core *)
}

type t = {
  ctx : Enoki.Ctx.t;
  mutable activations : activation list; (* attach order = slot order *)
  assigned : int option array; (* cpu -> slot *)
  mutable runtime_pid : int option; (* destination for reverse-queue messages *)
  mutable desired : int;
  lock : Enoki.Lock.t;
}

include Enoki.Sched_trait.Defaults (struct type nonrec t = t end)

let name = "arachne-arbiter"

let create (ctx : Enoki.Ctx.t) =
  {
    ctx;
    activations = [];
    assigned = Array.make ctx.nr_cpus None;
    runtime_pid = None;
    desired = 0;
    lock = Enoki.Lock.create ();
  }

let get_policy t = t.ctx.policy

let find_act t pid = List.find_opt (fun a -> a.pid = pid) t.activations

let find_slot t slot = List.find_opt (fun a -> a.slot = slot) t.activations

let granted t = Array.fold_left (fun n a -> if a = None then n else n + 1) 0 t.assigned

let managed_cpus t =
  List.init (t.ctx.nr_cpus - first_managed_cpu) (fun i -> i + first_managed_cpu)

(* Reconcile grants with the runtime's latest request: grant free managed
   cores to parked activations, or reclaim surplus cores via the reverse
   queue.  The runtime reacts in userspace (waking / parking activations),
   exactly the split Arachne's two-level design prescribes. *)
let reconcile t =
  let want = min t.desired (t.ctx.nr_cpus - first_managed_cpu) in
  let have = granted t in
  if have < want then begin
    let free = List.filter (fun c -> t.assigned.(c) = None) (managed_cpus t) in
    let parked = List.filter (fun a -> a.cpu = None) t.activations in
    let rec grant cpus acts n =
      if n <= 0 then ()
      else
        match (cpus, acts) with
        | cpu :: cpus', act :: acts' ->
          t.assigned.(cpu) <- Some act.slot;
          act.cpu <- Some cpu;
          Option.iter
            (fun rpid -> t.ctx.send_user ~pid:rpid (Hints.Core_grant { slot = act.slot; cpu }))
            t.runtime_pid;
          t.ctx.resched ~cpu;
          grant cpus' acts' (n - 1)
        | _, _ -> ()
    in
    grant free parked (want - have)
  end
  else if have > want then begin
    (* reclaim the highest-numbered granted cores *)
    let surplus = have - want in
    let granted_cpus = List.rev (List.filter (fun c -> t.assigned.(c) <> None) (managed_cpus t)) in
    List.iteri
      (fun i cpu ->
        if i < surplus then
          match t.assigned.(cpu) with
          | Some slot ->
            Option.iter
              (fun rpid -> t.ctx.send_user ~pid:rpid (Hints.Core_reclaim { slot }))
              t.runtime_pid
          | None -> ())
      granted_cpus
  end

let task_new t ~pid ~runtime:_ ~prio:_ ~sched =
  Enoki.Lock.with_lock t.lock (fun () ->
      let slot = List.length t.activations in
      t.activations <- t.activations @ [ { slot; pid; token = sched; cpu = None } ];
      reconcile t)

let task_wakeup t ~pid ~runtime:_ ~waker_cpu:_ ~sched =
  Enoki.Lock.with_lock t.lock (fun () ->
      match find_act t pid with
      | Some act ->
        act.token <- sched;
        (match act.cpu with Some cpu -> t.ctx.resched ~cpu | None -> reconcile t)
      | None -> ())

let task_blocked t ~pid ~runtime:_ ~cpu:_ =
  Enoki.Lock.with_lock t.lock (fun () ->
      match find_act t pid with
      | Some act ->
        act.token <- Sched.none;
        (* a parked activation frees its core for regranting *)
        (match act.cpu with
        | Some cpu ->
          t.assigned.(cpu) <- None;
          act.cpu <- None
        | None -> ());
        reconcile t
      | None -> ())

let task_preempt t ~pid ~runtime:_ ~cpu:_ ~sched =
  Enoki.Lock.with_lock t.lock (fun () ->
      match find_act t pid with Some act -> act.token <- sched | None -> ())

let task_yield = task_preempt

let task_dead t ~pid =
  Enoki.Lock.with_lock t.lock (fun () ->
      (match find_act t pid with
      | Some act -> (
        match act.cpu with
        | Some cpu ->
          t.assigned.(cpu) <- None;
          act.cpu <- None
        | None -> ())
      | None -> ());
      t.activations <- List.filter (fun a -> a.pid <> pid) t.activations)

let task_departed t ~pid ~cpu:_ =
  Enoki.Lock.with_lock t.lock (fun () ->
      match find_act t pid with
      | Some act ->
        let tok = act.token in
        act.token <- Sched.none;
        (match act.cpu with
        | Some cpu ->
          t.assigned.(cpu) <- None;
          act.cpu <- None
        | None -> ());
        t.activations <- List.filter (fun a -> a.pid <> pid) t.activations;
        tok
      | None -> Sched.none)

let select_task_rq t ~pid ~waker_cpu:_ ~allowed =
  Enoki.Lock.with_lock t.lock (fun () ->
      let fallback = match allowed with c :: _ -> c | [] -> first_managed_cpu in
      match find_act t pid with
      | Some { cpu = Some cpu; _ } when List.mem cpu allowed -> cpu
      | Some _ | None -> if List.mem first_managed_cpu allowed then first_managed_cpu else fallback)

let pick_next_task t ~cpu ~curr ~curr_runtime:_ =
  Enoki.Lock.with_lock t.lock (fun () ->
      match t.assigned.(cpu) with
      | Some slot -> (
        match find_slot t slot with
        | Some act when Sched.cpu act.token = cpu ->
          let tok = act.token in
          act.token <- Sched.none;
          tok
        | Some _ | None -> curr)
      | None -> curr)

let pnt_err t ~cpu:_ ~pid ~err:_ ~sched =
  Enoki.Lock.with_lock t.lock (fun () ->
      match find_act t pid with Some act -> act.token <- sched | None -> ())

(* an activation granted a core but sitting on another run-queue is pulled
   over by the kernel through balance *)
let balance t ~cpu =
  Enoki.Lock.with_lock t.lock (fun () ->
      match t.assigned.(cpu) with
      | Some slot -> (
        match find_slot t slot with
        | Some act when (not (Sched.is_none act.token)) && Sched.cpu act.token <> cpu -> act.pid
        | Some _ | None -> -1)
      | None -> -1)

let migrate_task_rq t ~pid ~sched =
  Enoki.Lock.with_lock t.lock (fun () ->
      match find_act t pid with
      | Some act ->
        let old = act.token in
        act.token <- sched;
        old
      | None -> Sched.none)

let parse_hint t ~pid:_ ~hint =
  match hint with
  | Hints.Core_request { pid; cores } ->
    Enoki.Lock.with_lock t.lock (fun () ->
        t.runtime_pid <- Some pid;
        t.desired <- max 0 cores;
        reconcile t)
  | _ -> ()

type Enoki.Upgrade.transfer +=
  | Arbiter_state of {
      activations : activation list;
      assigned : int option array;
      runtime_pid : int option;
      desired : int;
    }

let reregister_prepare t =
  Some
    (Arbiter_state
       {
         activations = t.activations;
         assigned = t.assigned;
         runtime_pid = t.runtime_pid;
         desired = t.desired;
       })

let reregister_init (ctx : Enoki.Ctx.t) transfer =
  match transfer with
  | None -> create ctx
  | Some (Arbiter_state { activations; assigned; runtime_pid; desired }) ->
    { ctx; activations; assigned; runtime_pid; desired; lock = Enoki.Lock.create () }
  | Some _ -> raise (Enoki.Upgrade.Incompatible "arachne: unrecognised transfer state")
