module Sched = Enoki.Schedulable

type task = {
  pid : int;
  mutable prio : int;
  mutable weight : int;
  mutable vtime : int;
  mutable last_runtime : int;
  mutable cpu : int;
}

let nice_0_load = 1024

(* weight-scaled charge, as CFS scales vruntime *)
let weighted ns ~weight = ns * nice_0_load / max 1 weight

(* preempt a running task after this many ticks when work is waiting
   (sched_ext's default slice, in tick units) *)
let slice_ticks = 4

module Api = struct
  type t = {
    ctx : Enoki.Ctx.t;
    locals : Dsq.t array;
    mutable shared : (string * Dsq.t) list; (* creation order *)
    tasks : (int, task) Hashtbl.t;
    where : (int, Dsq.t) Hashtbl.t; (* queued pid -> holding queue *)
    running : int option array; (* pid running per cpu, by our own picks *)
    ticks : int array; (* ticks since the cpu last dispatched *)
    mutable pending : Sched.t option; (* token in flight through P.enqueue *)
    mutable fallback_inserts : int;
    lock : Enoki.Lock.t;
  }

  let make (ctx : Enoki.Ctx.t) =
    {
      ctx;
      locals =
        Array.init ctx.nr_cpus (fun c -> Dsq.create ctx (Printf.sprintf "local_%d" c));
      shared = [];
      tasks = Hashtbl.create 64;
      where = Hashtbl.create 64;
      running = Array.make ctx.nr_cpus None;
      ticks = Array.make ctx.nr_cpus 0;
      pending = None;
      fallback_inserts = 0;
      lock = Enoki.Lock.create ~name:"dsq-sched" ();
    }

  let nr_cpus t = t.ctx.nr_cpus

  let now t = t.ctx.now ()

  let kick t ~cpu = t.ctx.resched ~cpu

  let local t ~cpu = t.locals.(cpu)

  let is_local t d = Array.exists (fun l -> l == d) t.locals

  let queued _t dsq = Dsq.length dsq

  let running t ~cpu = t.running.(cpu)

  (* get-or-create, so [P.init] finds its queues again (contents intact)
     after a live upgrade adopted them *)
  let shared_dsq t ?(mode = Dsq.Fifo) name =
    match List.assoc_opt name t.shared with
    | Some d -> d
    | None ->
      let d = Dsq.create ~mode t.ctx name in
      t.shared <- t.shared @ [ (name, d) ];
      d

  (* scx_bpf_dsq_insert: route the token in flight into [dsq].  A token only
     licenses its own cpu, so an insert aimed at another cpu's local queue is
     redirected to the token's own. *)
  let insert t dsq ?vtime (task : task) =
    match t.pending with
    | None -> invalid_arg "Dsq_sched.Api.insert: no task in flight (call from enqueue only)"
    | Some token ->
      t.pending <- None;
      let dsq =
        let cpu = Sched.cpu token in
        if is_local t dsq && t.locals.(cpu) != dsq then t.locals.(cpu) else dsq
      in
      Dsq.insert dsq ?vtime token;
      Hashtbl.replace t.where task.pid dsq

  (* scx_bpf_dsq_move_to_local: pull the first entry of [dsq] licensed for
     [cpu] into its local queue; says whether the local queue has work. *)
  let move_to_local t ~cpu dsq =
    if dsq == t.locals.(cpu) then not (Dsq.is_empty dsq)
    else
      match Dsq.take_for dsq ~cpu with
      | Some e ->
        Dsq.put t.locals.(cpu) e;
        Hashtbl.replace t.where e.Dsq.pid t.locals.(cpu);
        true
      | None -> false

  (* placement helper: the previous cpu if idle, else any idle allowed cpu,
     else the allowed cpu with the shortest local queue *)
  let select_idle t ~prev_cpu ~allowed =
    let idle c =
      c >= 0 && c < Array.length t.locals && t.running.(c) = None
      && Dsq.is_empty t.locals.(c)
    in
    if List.mem prev_cpu allowed && idle prev_cpu then prev_cpu
    else
      match List.find_opt idle allowed with
      | Some c -> c
      | None ->
        let best = ref (match allowed with c :: _ -> c | [] -> 0)
        and best_len = ref max_int in
        List.iter
          (fun c ->
            if c >= 0 && c < Array.length t.locals then begin
              let len =
                Dsq.length t.locals.(c) + if t.running.(c) = None then 0 else 1
              in
              if len < !best_len then begin
                best := c;
                best_len := len
              end
            end)
          allowed;
        !best

  (* balance-time migration candidate: the head of [dsq], when it is
     licensed for a busy cpu and so cannot drain without help *)
  let steal_head t dsq ~cpu =
    match Dsq.peek dsq with
    | Some e
      when Sched.cpu e.Dsq.token <> cpu && t.running.(Sched.cpu e.Dsq.token) <> None ->
      Some e.Dsq.pid
    | Some _ | None -> None

  (* work stealing for local-queue policies: the head of the longest other
     local queue that cannot drain itself promptly *)
  let steal_longest_local t ~cpu =
    let longest = ref None in
    Array.iteri
      (fun other q ->
        if other <> cpu then
          let len =
            if t.running.(other) <> None then Dsq.length q
            else if Dsq.length q >= 2 then Dsq.length q
            else 0
          in
          match !longest with
          | Some (_, blen) when blen >= len -> ()
          | _ -> if len > 0 then longest := Some (other, len))
      t.locals;
    match !longest with
    | Some (other, _) -> Option.map (fun e -> e.Dsq.pid) (Dsq.peek t.locals.(other))
    | None -> None

  let fallback_inserts t = t.fallback_inserts
end

module type POLICY = sig
  type state

  val name : string

  (** Create policy state; ask {!Api.shared_dsq} for shared queues here. *)
  val init : Api.t -> state

  (** Place a waking/new task ([task.cpu] is its previous cpu). *)
  val select_cpu : state -> Api.t -> task -> waker_cpu:int -> allowed:int list -> int

  (** Route the task in flight into a queue via {!Api.insert}. *)
  val enqueue : state -> Api.t -> task -> unit

  (** [cpu]'s local queue ran dry: move work to it ({!Api.move_to_local}). *)
  val dispatch : state -> Api.t -> cpu:int -> unit

  (** The task came off a cpu having run [ran] more ns (weight-unscaled). *)
  val stopping : state -> Api.t -> task -> ran:int -> runnable:bool -> unit

  (** An idle cpu asks for a cross-cpu migration candidate (pid). *)
  val steal : state -> Api.t -> cpu:int -> int option

  val tick : state -> Api.t -> cpu:int -> queued:bool -> unit
end

(* One transfer shape for the whole DSQ family: queue contents, the task
   table and running set move verbatim; [policy] guards against adopting
   another policy's queues (their invariants differ even when the shapes
   agree). *)
type Enoki.Upgrade.transfer +=
  | Dsq_state of {
      policy : string;
      locals : Dsq.t array;
      shared : (string * Dsq.t) list;
      tasks : (int, task) Hashtbl.t;
      where : (int, Dsq.t) Hashtbl.t;
      running : int option array;
    }

module Make (P : POLICY) : Enoki.Sched_trait.S = struct
  type t = { api : Api.t; state : P.state }

  include Enoki.Sched_trait.Defaults (struct type nonrec t = t end)

  let name = P.name

  let create ctx =
    let api = Api.make ctx in
    { api; state = P.init api }

  let get_policy t = t.api.Api.ctx.policy

  let task_of (api : Api.t) ~pid ~prio =
    match Hashtbl.find_opt api.tasks pid with
    | Some tk -> tk
    | None ->
      let tk =
        {
          pid;
          prio;
          weight = Kernsim.Cfs.weight_of_nice prio;
          vtime = 0;
          last_runtime = 0;
          cpu = 0;
        }
      in
      Hashtbl.replace api.tasks pid tk;
      tk

  (* kernel-reported cumulative runtime -> delta since the last report *)
  let ran tk ~runtime =
    let d = runtime - tk.last_runtime in
    if d > 0 then begin
      tk.last_runtime <- runtime;
      d
    end
    else 0

  let enqueue_via_policy t token tk =
    let api = t.api in
    api.Api.pending <- Some token;
    tk.cpu <- Sched.cpu token;
    P.enqueue t.state api tk;
    match api.Api.pending with
    | None -> ()
    | Some tok ->
      (* the policy dropped the task: the token's local queue is the
         fallback DSQ, so nothing is ever lost *)
      api.Api.pending <- None;
      api.Api.fallback_inserts <- api.Api.fallback_inserts + 1;
      Dsq.insert api.Api.locals.(Sched.cpu tok) tok;
      Hashtbl.replace api.Api.where tk.pid api.Api.locals.(Sched.cpu tok)

  let remove_queued (api : Api.t) pid =
    match Hashtbl.find_opt api.where pid with
    | None -> None
    | Some d ->
      Hashtbl.remove api.where pid;
      Option.map (fun e -> e.Dsq.token) (Dsq.remove d ~pid)

  let with_lock t f = Enoki.Lock.with_lock t.api.Api.lock f

  let task_new t ~pid ~runtime ~prio ~sched =
    with_lock t (fun () ->
        let tk = task_of t.api ~pid ~prio in
        tk.prio <- prio;
        tk.weight <- Kernsim.Cfs.weight_of_nice prio;
        tk.last_runtime <- runtime;
        enqueue_via_policy t sched tk)

  let task_wakeup t ~pid ~runtime ~waker_cpu:_ ~sched =
    with_lock t (fun () ->
        let tk = task_of t.api ~pid ~prio:0 in
        if runtime > tk.last_runtime then tk.last_runtime <- runtime;
        enqueue_via_policy t sched tk)

  let clear_running (api : Api.t) ~cpu ~pid =
    if api.running.(cpu) = Some pid then api.running.(cpu) <- None

  let requeue t ~pid ~runtime ~cpu ~sched =
    with_lock t (fun () ->
        let tk = task_of t.api ~pid ~prio:0 in
        let d = ran tk ~runtime in
        P.stopping t.state t.api tk ~ran:d ~runnable:true;
        clear_running t.api ~cpu ~pid;
        enqueue_via_policy t sched tk)

  let task_preempt t ~pid ~runtime ~cpu ~sched = requeue t ~pid ~runtime ~cpu ~sched

  let task_yield t ~pid ~runtime ~cpu ~sched = requeue t ~pid ~runtime ~cpu ~sched

  let task_blocked t ~pid ~runtime ~cpu =
    with_lock t (fun () ->
        let tk = task_of t.api ~pid ~prio:0 in
        let d = ran tk ~runtime in
        P.stopping t.state t.api tk ~ran:d ~runnable:false;
        clear_running t.api ~cpu ~pid;
        ignore (remove_queued t.api pid))

  let task_dead t ~pid =
    with_lock t (fun () ->
        Array.iteri
          (fun cpu r -> if r = Some pid then t.api.Api.running.(cpu) <- None)
          t.api.Api.running;
        ignore (remove_queued t.api pid);
        Hashtbl.remove t.api.Api.tasks pid)

  let task_departed t ~pid ~cpu =
    with_lock t (fun () ->
        clear_running t.api ~cpu ~pid;
        let tok = remove_queued t.api pid in
        Hashtbl.remove t.api.Api.tasks pid;
        tok)

  let pick_next_task t ~cpu ~curr ~curr_runtime =
    with_lock t (fun () ->
        let api = t.api in
        let take () =
          match Dsq.consume api.Api.locals.(cpu) with
          | Some e ->
            Hashtbl.remove api.Api.where e.Dsq.pid;
            Some e
          | None -> None
        in
        let entry =
          match take () with
          | Some e -> Some e
          | None ->
            P.dispatch t.state api ~cpu;
            take ()
        in
        match entry with
        | Some e ->
          api.Api.ticks.(cpu) <- 0;
          api.Api.running.(cpu) <- Some e.Dsq.pid;
          (match curr with
          | Some c when Sched.pid c <> e.Dsq.pid ->
            (* the displaced current task re-enters through the policy *)
            let tk = task_of api ~pid:(Sched.pid c) ~prio:0 in
            let d = ran tk ~runtime:curr_runtime in
            P.stopping t.state api tk ~ran:d ~runnable:true;
            enqueue_via_policy t c tk
          | Some _ | None -> ());
          Some e.Dsq.token
        | None ->
          api.Api.running.(cpu) <- Option.map Sched.pid curr;
          curr)

  let pnt_err t ~cpu:_ ~pid ~err:_ ~sched =
    match sched with
    | None -> ()
    | Some tok ->
      with_lock t (fun () ->
          (* ownership returns to us: park the token on its own local queue *)
          Dsq.insert t.api.Api.locals.(Sched.cpu tok) tok;
          Hashtbl.replace t.api.Api.where pid t.api.Api.locals.(Sched.cpu tok))

  let work_waiting (api : Api.t) ~cpu =
    (not (Dsq.is_empty api.locals.(cpu)))
    || List.exists (fun (_, d) -> not (Dsq.is_empty d)) api.shared

  let task_tick t ~cpu ~queued =
    with_lock t (fun () ->
        let api = t.api in
        api.Api.ticks.(cpu) <- api.Api.ticks.(cpu) + 1;
        if queued && api.Api.ticks.(cpu) >= slice_ticks && work_waiting api ~cpu then begin
          api.Api.ticks.(cpu) <- 0;
          api.Api.ctx.resched ~cpu
        end;
        P.tick t.state api ~cpu ~queued)

  let select_task_rq t ~pid ~waker_cpu ~allowed =
    with_lock t (fun () ->
        let tk = task_of t.api ~pid ~prio:0 in
        let cpu = P.select_cpu t.state t.api tk ~waker_cpu ~allowed in
        if List.mem cpu allowed then cpu
        else match allowed with c :: _ -> c | [] -> 0)

  let migrate_task_rq t ~pid ~sched =
    with_lock t (fun () ->
        let api = t.api in
        let tk = task_of api ~pid ~prio:0 in
        tk.cpu <- Sched.cpu sched;
        match Hashtbl.find_opt api.Api.where pid with
        | Some d -> (
          match Dsq.remove d ~pid with
          | Some e ->
            let e' = { e with Dsq.token = sched } in
            if Api.is_local api d then begin
              (* local entries follow the task to its new home cpu *)
              Dsq.put api.Api.locals.(Sched.cpu sched) e';
              Hashtbl.replace api.Api.where pid api.Api.locals.(Sched.cpu sched)
            end
            else
              (* shared entries keep their queue position: balance migrates
                 heads, and losing the turn would starve them *)
              Dsq.put_front d e';
            Some e.Dsq.token
          | None ->
            Hashtbl.remove api.Api.where pid;
            Dsq.insert api.Api.locals.(Sched.cpu sched) sched;
            Hashtbl.replace api.Api.where pid api.Api.locals.(Sched.cpu sched);
            None)
        | None ->
          Dsq.insert api.Api.locals.(Sched.cpu sched) sched;
          Hashtbl.replace api.Api.where pid api.Api.locals.(Sched.cpu sched);
          None)

  let balance t ~cpu =
    with_lock t (fun () ->
        let api = t.api in
        if api.Api.running.(cpu) = None && Dsq.is_empty api.Api.locals.(cpu) then
          P.steal t.state api ~cpu
        else None)

  let task_prio_changed t ~pid ~prio =
    with_lock t (fun () ->
        let tk = task_of t.api ~pid ~prio in
        tk.prio <- prio;
        tk.weight <- Kernsim.Cfs.weight_of_nice prio)

  let reregister_prepare t =
    Some
      (Dsq_state
         {
           policy = P.name;
           locals = t.api.Api.locals;
           shared = t.api.Api.shared;
           tasks = t.api.Api.tasks;
           where = t.api.Api.where;
           running = t.api.Api.running;
         })

  let reregister_init (ctx : Enoki.Ctx.t) transfer =
    match transfer with
    | None -> create ctx
    | Some (Dsq_state s) when s.policy = P.name ->
      let api =
        {
          Api.ctx;
          locals = s.locals;
          shared = s.shared;
          tasks = s.tasks;
          where = s.where;
          running = s.running;
          ticks = Array.make ctx.nr_cpus 0;
          pending = None;
          fallback_inserts = 0;
          lock = Enoki.Lock.create ~name:"dsq-sched" ();
        }
      in
      (* P.init re-finds the adopted shared queues by name, contents intact *)
      { api; state = P.init api }
    | Some (Dsq_state s) ->
      raise
        (Enoki.Upgrade.Incompatible
           (Printf.sprintf "%s: cannot adopt queues from DSQ policy %s" P.name s.policy))
    | Some _ ->
      raise (Enoki.Upgrade.Incompatible (P.name ^ ": unrecognised transfer state"))
end
