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
  (* A queue's id is its interned name ({!Dsq.id}); [by_id] maps the ids
     of this scheduler's queues back to them, and [where] gives each queued
     pid the id of the queue holding it. *)
  type t = {
    ctx : Enoki.Ctx.t;
    locals : Dsq.t array;
    mutable shared : (string * Dsq.t) list; (* creation order *)
    mutable by_id : Dsq.t option array;
    mutable local_cpu : int array; (* id -> the cpu a local queue serves, -1 if shared *)
    tasks : (int, task) Hashtbl.t;
    mutable where : int array; (* queued pid -> holding queue's id, -1 = none *)
    running : int array; (* pid running per cpu, by our own picks; -1 = none *)
    ticks : int array; (* ticks since the cpu last dispatched *)
    mutable pending : Sched.t; (* token in flight through P.enqueue, or none *)
    lock : Enoki.Lock.t;
  }

  let register t d =
    let id = Dsq.id d in
    if id >= Array.length t.by_id then begin
      let n = max (id + 1) (2 * Array.length t.by_id) in
      t.by_id <- Ds.Column.grow t.by_id n None;
      t.local_cpu <- Ds.Column.grow t.local_cpu n (-1)
    end;
    t.by_id.(id) <- Some d

  (* [locals]/[shared] adopted verbatim, or fresh *)
  let make ?locals ?(shared = []) ?(tasks = Hashtbl.create 64) ?(where = [||]) ?running
      (ctx : Enoki.Ctx.t) =
    (* the adapter's lock is created before the local queues' (lock ids
       follow creation order, and record logs name locks by id) *)
    let lock = Enoki.Lock.create ctx.locks in
    let locals =
      match locals with
      | Some l -> l
      | None -> Array.init ctx.nr_cpus (fun c -> Dsq.create ctx (Printf.sprintf "local_%d" c))
    in
    let t =
      {
        ctx;
        locals;
        shared;
        by_id = [||];
        local_cpu = [||];
        tasks;
        where;
        running =
          (match running with Some r -> r | None -> Array.make ctx.nr_cpus (-1));
        ticks = Array.make ctx.nr_cpus 0;
        pending = Sched.none;
        lock;
      }
    in
    Array.iteri
      (fun cpu d ->
        register t d;
        t.local_cpu.(Dsq.id d) <- cpu)
      locals;
    List.iter (fun (_, d) -> register t d) shared;
    t

  let local t ~cpu = t.locals.(cpu)

  let is_local t d =
    let id = Dsq.id d in
    id < Array.length t.local_cpu && t.local_cpu.(id) >= 0 && t.locals.(t.local_cpu.(id)) == d

  let queued _t dsq = Dsq.length dsq

  let queue t id = match t.by_id.(id) with Some d -> d | None -> assert false

  let where t pid = if pid >= 0 && pid < Array.length t.where then t.where.(pid) else -1

  let set_where t pid d =
    if pid >= 0 then begin
      if pid >= Array.length t.where then
        t.where <- Ds.Column.grow t.where (max (pid + 1) (max 16 (2 * Array.length t.where))) (-1);
      let id = Dsq.id d in
      (match if id < Array.length t.by_id then t.by_id.(id) else None with
      | Some known when known == d -> ()
      | Some _ | None -> register t d);
      t.where.(pid) <- id
    end

  let clear_where t pid = if where t pid >= 0 then t.where.(pid) <- -1

  (* get-or-create, so [P.init] finds its queues again (contents intact)
     after a live upgrade adopted them *)
  let shared_dsq t ?(mode = Dsq.Fifo) name =
    match List.assoc_opt name t.shared with
    | Some d -> d
    | None ->
      let d = Dsq.create ~mode t.ctx name in
      t.shared <- t.shared @ [ (name, d) ];
      register t d;
      d

  (* scx_bpf_dsq_insert: route the token in flight into [dsq] at the task's
     vtime.  A token only licenses its own cpu, so an insert aimed at another
     cpu's local queue is redirected to the token's own. *)
  let insert t dsq (task : task) =
    let token = t.pending in
    if Sched.is_none token then
      invalid_arg "Dsq_sched.Api.insert: no task in flight (call from enqueue only)";
    t.pending <- Sched.none;
    let dsq =
      let cpu = Sched.cpu token in
      if is_local t dsq && t.locals.(cpu) != dsq then t.locals.(cpu) else dsq
    in
    Dsq.insert dsq ~vtime:task.vtime token;
    set_where t task.pid dsq

  (* scx_bpf_dsq_move_to_local: pull the first entry of [dsq] licensed for
     [cpu] into its local queue; says whether the local queue has work. *)
  let move_to_local t ~cpu dsq =
    let local = t.locals.(cpu) in
    if dsq == local then not (Dsq.is_empty dsq)
    else begin
      let pid = Dsq.move_for dsq ~cpu ~into:local in
      if pid >= 0 then set_where t pid local;
      pid >= 0
    end

  let idle t c =
    c >= 0 && c < Array.length t.locals && t.running.(c) < 0 && Dsq.is_empty t.locals.(c)

  let rec first_idle t = function [] -> -1 | c :: rest -> if idle t c then c else first_idle t rest

  let load t c = Dsq.length t.locals.(c) + if t.running.(c) < 0 then 0 else 1

  let rec shortest t best best_len = function
    | [] -> best
    | c :: rest ->
      if c >= 0 && c < Array.length t.locals && load t c < best_len then
        shortest t c (load t c) rest
      else shortest t best best_len rest

  (* placement helper: the previous cpu if idle, else any idle allowed cpu,
     else the allowed cpu with the shortest local queue *)
  let select_idle t ~prev_cpu ~allowed =
    if List.mem prev_cpu allowed && idle t prev_cpu then prev_cpu
    else
      let c = first_idle t allowed in
      if c >= 0 then c else shortest t (match allowed with c :: _ -> c | [] -> 0) max_int allowed

  (* balance-time migration candidate: the head of [dsq], when it is
     licensed for a busy cpu and so cannot drain without help *)
  let steal_head t dsq ~cpu =
    let tok = Dsq.peek dsq in
    if (not (Sched.is_none tok)) && Sched.cpu tok <> cpu && t.running.(Sched.cpu tok) >= 0 then
      Sched.pid tok
    else -1

  (* the length [other] offers a thief: only a local queue that cannot
     drain itself promptly gives work away *)
  let spare t other =
    let len = Dsq.length t.locals.(other) in
    if t.running.(other) >= 0 || len >= 2 then len else 0

  (* work stealing for local-queue policies: the head of the longest other
     local queue that cannot drain itself promptly *)
  let steal_longest_local t ~cpu =
    let longest = ref (-1) and longest_len = ref 0 in
    for other = 0 to Array.length t.locals - 1 do
      if other <> cpu && spare t other > !longest_len then begin
        longest := other;
        longest_len := spare t other
      end
    done;
    if !longest < 0 then -1 else Sched.pid (Dsq.peek t.locals.(!longest))

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

  (** An idle cpu asks for a cross-cpu migration candidate (pid, or -1). *)
  val steal : state -> Api.t -> cpu:int -> int

  val tick : state -> Api.t -> cpu:int -> queued:bool -> unit
end

(* One transfer shape for the whole DSQ family: queue contents, the task
   table, the queue-id-per-pid column and the running set move verbatim;
   [policy] guards against adopting another policy's queues (their
   invariants differ even when the shapes agree). *)
type Enoki.Upgrade.transfer +=
  | Dsq_state of {
      policy : string;
      locals : Dsq.t array;
      shared : (string * Dsq.t) list;
      tasks : (int, task) Hashtbl.t;
      where : int array;
      running : int array;
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
    match Hashtbl.find api.tasks pid with
    | tk -> tk
    | exception Not_found ->
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
    api.Api.pending <- token;
    tk.cpu <- Sched.cpu token;
    P.enqueue t.state api tk;
    let tok = api.Api.pending in
    if not (Sched.is_none tok) then begin
      (* the policy dropped the task: the token's local queue is the
         fallback DSQ, so nothing is ever lost *)
      api.Api.pending <- Sched.none;
      Dsq.insert api.Api.locals.(Sched.cpu tok) ~vtime:0 tok;
      Api.set_where api tk.pid api.Api.locals.(Sched.cpu tok)
    end

  let remove_queued (api : Api.t) pid =
    let id = Api.where api pid in
    if id < 0 then Sched.none
    else begin
      api.where.(pid) <- -1;
      Dsq.remove (Api.queue api id) ~pid
    end

  (* Each hook is a closed [*_locked] function of the state and four
     arguments (unused ones are [()]) run through [Enoki.Lock.locked], so
     no closure is built per call. *)

  let task_new_locked t pid runtime prio sched =
    let tk = task_of t.api ~pid ~prio in
    tk.prio <- prio;
    tk.weight <- Kernsim.Cfs.weight_of_nice prio;
    tk.last_runtime <- runtime;
    enqueue_via_policy t sched tk

  let task_new t ~pid ~runtime ~prio ~sched =
    Enoki.Lock.locked t.api.Api.lock task_new_locked t pid runtime prio sched

  let task_wakeup_locked t pid runtime sched () =
    let tk = task_of t.api ~pid ~prio:0 in
    if runtime > tk.last_runtime then tk.last_runtime <- runtime;
    enqueue_via_policy t sched tk

  let task_wakeup t ~pid ~runtime ~waker_cpu:_ ~sched =
    Enoki.Lock.locked t.api.Api.lock task_wakeup_locked t pid runtime sched ()

  let clear_running (api : Api.t) ~cpu ~pid =
    if api.running.(cpu) = pid then api.running.(cpu) <- -1

  let requeue_locked t pid runtime cpu sched =
    let tk = task_of t.api ~pid ~prio:0 in
    let d = ran tk ~runtime in
    P.stopping t.state t.api tk ~ran:d ~runnable:true;
    clear_running t.api ~cpu ~pid;
    enqueue_via_policy t sched tk

  let task_preempt t ~pid ~runtime ~cpu ~sched =
    Enoki.Lock.locked t.api.Api.lock requeue_locked t pid runtime cpu sched

  let task_yield = task_preempt

  let task_blocked_locked t pid runtime cpu () =
    let tk = task_of t.api ~pid ~prio:0 in
    let d = ran tk ~runtime in
    P.stopping t.state t.api tk ~ran:d ~runnable:false;
    clear_running t.api ~cpu ~pid;
    ignore (remove_queued t.api pid)

  let task_blocked t ~pid ~runtime ~cpu =
    Enoki.Lock.locked t.api.Api.lock task_blocked_locked t pid runtime cpu ()

  let task_dead_locked t pid () () () =
    for cpu = 0 to Array.length t.api.Api.running - 1 do
      clear_running t.api ~cpu ~pid
    done;
    ignore (remove_queued t.api pid);
    Hashtbl.remove t.api.Api.tasks pid

  let task_dead t ~pid = Enoki.Lock.locked t.api.Api.lock task_dead_locked t pid () () ()

  let task_departed_locked t pid cpu () () =
    clear_running t.api ~cpu ~pid;
    let tok = remove_queued t.api pid in
    Hashtbl.remove t.api.Api.tasks pid;
    tok

  let task_departed t ~pid ~cpu =
    Enoki.Lock.locked t.api.Api.lock task_departed_locked t pid cpu () ()

  let take_local (api : Api.t) cpu =
    let tok = Dsq.consume api.locals.(cpu) in
    if not (Sched.is_none tok) then Api.clear_where api (Sched.pid tok);
    tok

  let pick_next_task_locked t cpu curr curr_runtime () =
    let api = t.api in
    let tok =
      let tok = take_local api cpu in
      if Sched.is_none tok then begin
        P.dispatch t.state api ~cpu;
        take_local api cpu
      end
      else tok
    in
    if Sched.is_none tok then begin
      api.Api.running.(cpu) <- Sched.pid curr;
      curr
    end
    else begin
      let pid = Sched.pid tok in
      api.Api.ticks.(cpu) <- 0;
      api.Api.running.(cpu) <- pid;
      if (not (Sched.is_none curr)) && Sched.pid curr <> pid then begin
        (* the displaced current task re-enters through the policy *)
        let tk = task_of api ~pid:(Sched.pid curr) ~prio:0 in
        let d = ran tk ~runtime:curr_runtime in
        P.stopping t.state api tk ~ran:d ~runnable:true;
        enqueue_via_policy t curr tk
      end;
      tok
    end

  let pick_next_task t ~cpu ~curr ~curr_runtime =
    Enoki.Lock.locked t.api.Api.lock pick_next_task_locked t cpu curr curr_runtime ()

  (* ownership returns to us: park the token on its own local queue *)
  let pnt_err_locked t pid tok () () =
    let local = t.api.Api.locals.(Sched.cpu tok) in
    Dsq.insert local ~vtime:0 tok;
    Api.set_where t.api pid local

  let pnt_err t ~cpu:_ ~pid ~err:_ ~sched =
    if not (Sched.is_none sched) then
      Enoki.Lock.locked t.api.Api.lock pnt_err_locked t pid sched () ()

  let rec any_waiting = function
    | [] -> false
    | (_, d) :: rest -> (not (Dsq.is_empty d)) || any_waiting rest

  let work_waiting (api : Api.t) ~cpu =
    (not (Dsq.is_empty api.locals.(cpu))) || any_waiting api.shared

  let task_tick_locked t cpu queued () () =
    let api = t.api in
    api.Api.ticks.(cpu) <- api.Api.ticks.(cpu) + 1;
    if queued && api.Api.ticks.(cpu) >= slice_ticks && work_waiting api ~cpu then begin
      api.Api.ticks.(cpu) <- 0;
      api.Api.ctx.resched ~cpu
    end;
    P.tick t.state api ~cpu ~queued

  let task_tick t ~cpu ~queued =
    Enoki.Lock.locked t.api.Api.lock task_tick_locked t cpu queued () ()

  let select_task_rq_locked t pid waker_cpu allowed () =
    let tk = task_of t.api ~pid ~prio:0 in
    let cpu = P.select_cpu t.state t.api tk ~waker_cpu ~allowed in
    if List.mem cpu allowed then cpu else match allowed with c :: _ -> c | [] -> 0

  let select_task_rq t ~pid ~waker_cpu ~allowed =
    Enoki.Lock.locked t.api.Api.lock select_task_rq_locked t pid waker_cpu allowed ()

  let migrate_task_rq_locked t pid sched () () =
    let api = t.api in
    let tk = task_of api ~pid ~prio:0 in
    tk.cpu <- Sched.cpu sched;
    let local = api.Api.locals.(Sched.cpu sched) in
    let id = Api.where api pid in
    let old =
      if id < 0 then Sched.none
      else begin
        let d = Api.queue api id in
        if Api.is_local api d then begin
          (* local entries follow the task to its new home cpu *)
          let old = Dsq.requeue d ~pid sched ~into:local ~front:false in
          if not (Sched.is_none old) then Api.set_where api pid local;
          old
        end
        else
          (* shared entries keep their queue position: balance migrates
             heads, and losing the turn would starve them *)
          Dsq.requeue d ~pid sched ~into:d ~front:true
      end
    in
    if Sched.is_none old then begin
      Api.clear_where api pid;
      Dsq.insert local ~vtime:0 sched;
      Api.set_where api pid local
    end;
    old

  let migrate_task_rq t ~pid ~sched =
    Enoki.Lock.locked t.api.Api.lock migrate_task_rq_locked t pid sched () ()

  let balance_locked t cpu () () () =
    let api = t.api in
    if api.Api.running.(cpu) < 0 && Dsq.is_empty api.Api.locals.(cpu) then
      P.steal t.state api ~cpu
    else -1

  let balance t ~cpu = Enoki.Lock.locked t.api.Api.lock balance_locked t cpu () () ()

  let task_prio_changed t ~pid ~prio =
    Enoki.Lock.with_lock t.api.Api.lock (fun () ->
        let tk = task_of t.api ~pid ~prio in
        tk.prio <- prio;
        tk.weight <- Kernsim.Cfs.weight_of_nice prio)

  let reregister_prepare t =
    let api = t.api in
    Some
      (Dsq_state
         {
           policy = P.name;
           locals = api.Api.locals;
           shared = api.Api.shared;
           tasks = api.Api.tasks;
           where = api.Api.where;
           running = api.Api.running;
         })

  let reregister_init (ctx : Enoki.Ctx.t) transfer =
    match transfer with
    | None -> create ctx
    | Some (Dsq_state s) when s.policy = P.name ->
      let api =
        Api.make ~locals:s.locals ~shared:s.shared ~tasks:s.tasks ~where:s.where
          ~running:s.running ctx
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
