module Sched = Enoki.Schedulable

module Key = struct
  type t = int * int (* vruntime, pid *)

  let compare (v1, p1) (v2, p2) =
    match Int.compare v1 v2 with 0 -> Int.compare p1 p2 | c -> c
end

module Tree = Ds.Rbtree.Make (Key)

let nice_0_load = 1024

let sched_latency = Kernsim.Time.us 6_000

let min_slice = Kernsim.Time.us 750

let wakeup_thresh = Kernsim.Time.us 3_000

type ent = {
  pid : int;
  mutable vruntime : int;
  mutable weight : int;
  mutable last_runtime : int; (* kernel-supplied runtime at last message *)
  mutable cpu : int;
}

type rq = {
  mutable tree : Sched.t Tree.t;
  mutable min_vruntime : int;
  mutable running : int option;
  mutable ticks_since_dispatch : int;
}

type t = { ctx : Enoki.Ctx.t; rqs : rq array; ents : (int, ent) Hashtbl.t; lock : Enoki.Lock.t }

let name = "wfq"

let make_rqs n =
  Array.init n (fun _ ->
      { tree = Tree.empty; min_vruntime = 0; running = None; ticks_since_dispatch = 0 })

let create (ctx : Enoki.Ctx.t) =
  {
    ctx;
    rqs = make_rqs ctx.nr_cpus;
    ents = Hashtbl.create 64;
    lock = Enoki.Lock.create ~name:"wfq-rq" ();
  }

let get_policy t = t.ctx.policy

let ent_of t ~pid ~prio =
  match Hashtbl.find_opt t.ents pid with
  | Some e -> e
  | None ->
    let e =
      {
        pid;
        vruntime = 0;
        weight = Kernsim.Cfs.weight_of_nice prio;
        last_runtime = 0;
        cpu = 0;
      }
    in
    Hashtbl.replace t.ents pid e;
    e

let calc_delta delta weight = delta * nice_0_load / max 1 weight

(* fold kernel-reported runtime into vruntime *)
let advance_vruntime e ~runtime =
  let delta = runtime - e.last_runtime in
  if delta > 0 then begin
    e.last_runtime <- runtime;
    e.vruntime <- e.vruntime + calc_delta delta e.weight
  end

let update_min rq =
  match Tree.min_binding_opt rq.tree with
  | Some ((v, _), _) -> if v > rq.min_vruntime then rq.min_vruntime <- v
  | None -> ()

let insert t ~cpu e sched =
  let rq = t.rqs.(cpu) in
  e.cpu <- cpu;
  rq.tree <- Tree.add (e.vruntime, e.pid) sched rq.tree

let remove_from t e =
  let rq = t.rqs.(e.cpu) in
  match Tree.find_opt (e.vruntime, e.pid) rq.tree with
  | Some sched ->
    rq.tree <- Tree.remove (e.vruntime, e.pid) rq.tree;
    Some sched
  | None -> None

let nr_queued rq = Tree.cardinal rq.tree

let nr_running rq = nr_queued rq + if rq.running = None then 0 else 1

(* ---------- trait implementation ---------- *)

let task_new t ~pid ~runtime ~prio ~sched =
  Enoki.Lock.with_lock t.lock (fun () ->
      let cpu = Sched.cpu sched in
      let e = ent_of t ~pid ~prio in
      e.weight <- Kernsim.Cfs.weight_of_nice prio;
      e.last_runtime <- runtime;
      e.vruntime <- t.rqs.(cpu).min_vruntime;
      insert t ~cpu e sched)

let task_wakeup t ~pid ~runtime ~waker_cpu:_ ~sched =
  Enoki.Lock.with_lock t.lock (fun () ->
      let cpu = Sched.cpu sched in
      let e = ent_of t ~pid ~prio:0 in
      advance_vruntime e ~runtime;
      let rq = t.rqs.(cpu) in
      let floor_v = rq.min_vruntime - calc_delta wakeup_thresh e.weight in
      if e.vruntime < floor_v then e.vruntime <- floor_v;
      insert t ~cpu e sched)

let task_blocked t ~pid ~runtime ~cpu =
  Enoki.Lock.with_lock t.lock (fun () ->
      match Hashtbl.find_opt t.ents pid with
      | None -> ()
      | Some e ->
        ignore (remove_from t e);
        advance_vruntime e ~runtime;
        let rq = t.rqs.(cpu) in
        if rq.running = Some pid then rq.running <- None;
        update_min rq)

let requeue t ~pid ~runtime ~cpu ~sched =
  Enoki.Lock.with_lock t.lock (fun () ->
      let e = ent_of t ~pid ~prio:0 in
      ignore (remove_from t e);
      advance_vruntime e ~runtime;
      let rq = t.rqs.(cpu) in
      if rq.running = Some pid then rq.running <- None;
      insert t ~cpu e sched;
      update_min rq)

let task_preempt = requeue

let task_yield = requeue

let task_dead t ~pid =
  Enoki.Lock.with_lock t.lock (fun () ->
      (match Hashtbl.find_opt t.ents pid with
      | Some e ->
        ignore (remove_from t e);
        let rq = t.rqs.(e.cpu) in
        if rq.running = Some pid then rq.running <- None
      | None -> ());
      Hashtbl.remove t.ents pid)

let task_departed t ~pid ~cpu =
  Enoki.Lock.with_lock t.lock (fun () ->
      let token =
        match Hashtbl.find_opt t.ents pid with Some e -> remove_from t e | None -> None
      in
      let rq = t.rqs.(cpu) in
      if rq.running = Some pid then rq.running <- None;
      Hashtbl.remove t.ents pid;
      token)

let pick_next_task t ~cpu ~curr ~curr_runtime:_ =
  Enoki.Lock.with_lock t.lock (fun () ->
      let rq = t.rqs.(cpu) in
      match Tree.min_binding_opt rq.tree with
      | Some ((v, pid), sched) ->
        rq.tree <- Tree.remove (v, pid) rq.tree;
        rq.running <- Some pid;
        rq.ticks_since_dispatch <- 0;
        if rq.min_vruntime < v then rq.min_vruntime <- v;
        Some sched
      | None ->
        rq.running <- Option.map Sched.pid curr;
        curr)

let pnt_err t ~cpu ~pid ~err:_ ~sched =
  match sched with
  | None -> ()
  | Some tok ->
    Enoki.Lock.with_lock t.lock (fun () ->
        let e = ent_of t ~pid ~prio:0 in
        insert t ~cpu e tok)

let select_task_rq t ~pid ~waker_cpu ~allowed =
  Enoki.Lock.with_lock t.lock (fun () ->
      (* go back to the previous cpu unless it has queued work; otherwise
         take the emptiest allowed queue.  Only [prev] needs the membership
         test: the scan draws its cpus from [allowed] itself. *)
      let in_range cpu = cpu >= 0 && cpu < Array.length t.rqs in
      let prev = match Hashtbl.find_opt t.ents pid with Some e -> e.cpu | None -> waker_cpu in
      if List.mem prev allowed && in_range prev && nr_running t.rqs.(prev) = 0 then prev
      else begin
        let best = ref (match allowed with c :: _ -> c | [] -> prev)
        and best_n = ref max_int in
        List.iter
          (fun cpu ->
            if in_range cpu then begin
              let n = nr_running t.rqs.(cpu) in
              if n < !best_n then begin
                best := cpu;
                best_n := n
              end
            end)
          allowed;
        !best
      end)

let migrate_task_rq t ~pid ~sched =
  Enoki.Lock.with_lock t.lock (fun () ->
      match Hashtbl.find_opt t.ents pid with
      | None ->
        let e = ent_of t ~pid ~prio:0 in
        insert t ~cpu:(Sched.cpu sched) e sched;
        None
      | Some e ->
        let old = remove_from t e in
        let from_rq = t.rqs.(e.cpu) and to_rq = t.rqs.(Sched.cpu sched) in
        if from_rq.running = Some pid then from_rq.running <- None;
        e.vruntime <- e.vruntime - from_rq.min_vruntime + to_rq.min_vruntime;
        insert t ~cpu:(Sched.cpu sched) e sched;
        old)

(* steal from the longest queue only when this core is about to idle *)
let balance t ~cpu =
  Enoki.Lock.with_lock t.lock (fun () ->
      let rq = t.rqs.(cpu) in
      if nr_queued rq > 0 || rq.running <> None then None
      else begin
        let longest = ref None in
        Array.iteri
          (fun other o ->
            if other <> cpu then
              (* only steal from a core that cannot drain itself promptly *)
              let n = if o.running <> None then nr_queued o else if nr_queued o >= 2 then nr_queued o else 0 in
              match !longest with
              | Some (_, ln) when ln >= n -> ()
              | _ -> if n > 0 then longest := Some (other, n))
          t.rqs;
        match !longest with
        | Some (other, _) -> (
          match Tree.min_binding_opt t.rqs.(other).tree with
          | Some ((_, pid), _) -> Some pid
          | None -> None)
        | None -> None
      end)

let balance_err _ ~cpu:_ ~pid:_ ~sched:_ = ()

let slice rq e =
  let nr = max 1 (nr_running rq) in
  max min_slice (sched_latency * e.weight / (nice_0_load * nr))

let task_tick t ~cpu ~queued =
  Enoki.Lock.with_lock t.lock (fun () ->
      let rq = t.rqs.(cpu) in
      if queued then begin
        rq.ticks_since_dispatch <- rq.ticks_since_dispatch + 1;
        match rq.running with
        | Some pid when nr_queued rq > 0 -> (
          match Hashtbl.find_opt t.ents pid with
          | Some e ->
            let ran = rq.ticks_since_dispatch * Kernsim.Time.ms 1 in
            let slice_exceeded = ran >= slice rq e in
            let curr_v_est = e.vruntime + calc_delta ran e.weight in
            let waiting_shorter =
              match Tree.min_binding_opt rq.tree with
              | Some ((v, _), _) -> v < curr_v_est
              | None -> false
            in
            if slice_exceeded || waiting_shorter then t.ctx.resched ~cpu
          | None -> ())
        | Some _ | None -> ()
      end)

let task_affinity_changed _ ~pid:_ ~allowed:_ = ()

let task_prio_changed t ~pid ~prio =
  Enoki.Lock.with_lock t.lock (fun () ->
      match Hashtbl.find_opt t.ents pid with
      | Some e -> (
        (* reinsert under the key ordering if queued *)
        match remove_from t e with
        | Some sched ->
          e.weight <- Kernsim.Cfs.weight_of_nice prio;
          insert t ~cpu:e.cpu e sched
        | None -> e.weight <- Kernsim.Cfs.weight_of_nice prio)
      | None -> ())

let parse_hint _ ~pid:_ ~hint:_ = ()

(* ---------- live upgrade ---------- *)

type Enoki.Upgrade.transfer +=
  | Wfq_state of { rqs : rq array; ents : (int, ent) Hashtbl.t }

let reregister_prepare t = Some (Wfq_state { rqs = t.rqs; ents = t.ents })

let reregister_init (ctx : Enoki.Ctx.t) transfer =
  match transfer with
  | None -> create ctx
  | Some (Wfq_state { rqs; ents }) ->
    { ctx; rqs; ents; lock = Enoki.Lock.create ~name:"wfq-rq" () }
  | Some _ -> raise (Enoki.Upgrade.Incompatible "wfq: unrecognised transfer state")

let without_steal : (module Enoki.Sched_trait.S) =
  (module struct
    type nonrec t = t

    let name = "wfq-nosteal"

    let create = create

    let get_policy = get_policy

    let pick_next_task = pick_next_task

    let pnt_err = pnt_err

    let task_dead = task_dead

    let task_blocked = task_blocked

    let task_wakeup = task_wakeup

    let task_new = task_new

    let task_preempt = task_preempt

    let task_yield = task_yield

    let task_departed = task_departed

    let task_affinity_changed = task_affinity_changed

    let task_prio_changed = task_prio_changed

    let task_tick = task_tick

    let select_task_rq = select_task_rq

    let migrate_task_rq = migrate_task_rq

    let balance _ ~cpu:_ = None

    let balance_err = balance_err

    let reregister_prepare = reregister_prepare

    let reregister_init = reregister_init

    let parse_hint = parse_hint
  end)

let queue_length t ~cpu = nr_queued t.rqs.(cpu)

let vruntime_of t ~pid =
  match Hashtbl.find_opt t.ents pid with Some e -> Some e.vruntime | None -> None
