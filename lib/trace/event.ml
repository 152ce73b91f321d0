type ns = int

type kind =
  | Sched_switch of { prev : int option; next : int option }
  | Wakeup of { pid : int; waker_cpu : int; affinity : int list option }
  | Dispatch of { pid : int }
  | Preempt of { pid : int }
  | Yield of { pid : int }
  | Block of { pid : int }
  | Exit of { pid : int }
  | Migrate of { pid : int; from_cpu : int; to_cpu : int }
  | Tick
  | Idle
  | Pnt_err of { pid : int; err : string }
  | Lock_acquire of { lock_id : int }
  | Lock_release of { lock_id : int }
  | Msg_call of { name : string }
  | Panic of { call : string; reason : string }
  | Failover of { fallback : string }
  | Overrun of { call : string; charged : ns; budget : ns }
  | Watchdog_fire of { reason : string }
  | Metric_flush of { tick : int }
  | Dsq_insert of { dsq : string; pid : int }
  | Dsq_consume of { dsq : string; pid : int; wait : ns }
  | Fleet_op of { host : int; op : string }
      (* a fleet orchestration action (drain/admit/upgrade/drill) touched
         the labelled host; observability marker, sanitizer-ignored *)
  | Req_enqueue of { req : int; tenant : int }
      (* a cluster request landed in the host ingress queue; anatomy
         context marker, sanitizer-ignored *)
  | Req_take of { req : int; pid : int }
      (* a worker task pulled the request off the ingress queue *)
  | Req_done of { req : int; pid : int }
      (* the worker finished serving the request *)

type t = { ts : ns; cpu : int; kind : kind }

(* Constructor order; [name] and the exporters' per-kind constants index
   this table by [index]. *)
let names =
  [| "sched_switch"; "wakeup"; "dispatch"; "preempt"; "yield"; "block"; "exit"; "migrate";
     "tick"; "idle"; "pnt_err"; "lock_acquire"; "lock_release"; "msg_call"; "panic";
     "failover"; "overrun"; "watchdog_fire"; "metric_flush"; "dsq_insert"; "dsq_consume";
     "fleet_op"; "req_enqueue"; "req_take"; "req_done" |]

let index = function
  | Sched_switch _ -> 0
  | Wakeup _ -> 1
  | Dispatch _ -> 2
  | Preempt _ -> 3
  | Yield _ -> 4
  | Block _ -> 5
  | Exit _ -> 6
  | Migrate _ -> 7
  | Tick -> 8
  | Idle -> 9
  | Pnt_err _ -> 10
  | Lock_acquire _ -> 11
  | Lock_release _ -> 12
  | Msg_call _ -> 13
  | Panic _ -> 14
  | Failover _ -> 15
  | Overrun _ -> 16
  | Watchdog_fire _ -> 17
  | Metric_flush _ -> 18
  | Dsq_insert _ -> 19
  | Dsq_consume _ -> 20
  | Fleet_op _ -> 21
  | Req_enqueue _ -> 22
  | Req_take _ -> 23
  | Req_done _ -> 24

let name kind = Array.unsafe_get names (index kind)

let pid_of = function
  | Wakeup { pid; _ }
  | Dispatch { pid }
  | Preempt { pid }
  | Yield { pid }
  | Block { pid }
  | Exit { pid }
  | Migrate { pid; _ }
  | Pnt_err { pid; _ }
  | Dsq_insert { pid; _ }
  | Dsq_consume { pid; _ }
  | Req_take { pid; _ }
  | Req_done { pid; _ } -> Some pid
  | Sched_switch { next = Some pid; _ } -> Some pid
  | Sched_switch _ | Tick | Idle | Lock_acquire _ | Lock_release _ | Msg_call _ | Panic _
  | Failover _ | Overrun _ | Watchdog_fire _ | Metric_flush _ | Fleet_op _ | Req_enqueue _ ->
    None

(* Every payload key, named by index in [iter_args] so an exporter can
   prepare each key's text once. *)
let arg_keys =
  [| "prev"; "next"; "pid"; "waker_cpu"; "affinity"; "from"; "to"; "err"; "lock"; "call";
     "reason"; "fallback"; "charged"; "budget"; "tick"; "dsq"; "wait"; "host"; "op"; "req";
     "tenant" |]

let k_prev = 0 and k_next = 1 and k_pid = 2 and k_waker_cpu = 3 and k_affinity = 4
and k_from = 5 and k_to = 6 and k_err = 7 and k_lock = 8 and k_call = 9 and k_reason = 10
and k_fallback = 11 and k_charged = 12 and k_budget = 13 and k_tick = 14 and k_dsq = 15
and k_wait = 16 and k_host = 17 and k_op = 18 and k_req = 19 and k_tenant = 20

(* One match names every kind's payload fields, in export order; [args]
   and the exporters' direct writers are both built on it.  [int] and [str]
   get the field's 0-based position so a writer can place separators
   without per-event state, and the key's index in [arg_keys].  A
   [Sched_switch] side with no task reads "idle". *)
let iter_args kind ~int ~str acc =
  match kind with
  | Sched_switch { prev; next } ->
    (match prev with Some p -> int acc 0 k_prev p | None -> str acc 0 k_prev "idle");
    (match next with Some p -> int acc 1 k_next p | None -> str acc 1 k_next "idle")
  | Wakeup { pid; waker_cpu; affinity } -> (
    int acc 0 k_pid pid;
    int acc 1 k_waker_cpu waker_cpu;
    match affinity with
    | None -> ()
    | Some cpus -> str acc 2 k_affinity (String.concat "," (List.map string_of_int cpus)))
  | Dispatch { pid } | Preempt { pid } | Yield { pid } | Block { pid } | Exit { pid } ->
    int acc 0 k_pid pid
  | Migrate { pid; from_cpu; to_cpu } ->
    int acc 0 k_pid pid;
    int acc 1 k_from from_cpu;
    int acc 2 k_to to_cpu
  | Tick | Idle -> ()
  | Pnt_err { pid; err } ->
    int acc 0 k_pid pid;
    str acc 1 k_err err
  | Lock_acquire { lock_id } | Lock_release { lock_id } -> int acc 0 k_lock lock_id
  | Msg_call { name } -> str acc 0 k_call name
  | Panic { call; reason } ->
    str acc 0 k_call call;
    str acc 1 k_reason reason
  | Failover { fallback } -> str acc 0 k_fallback fallback
  | Overrun { call; charged; budget } ->
    str acc 0 k_call call;
    int acc 1 k_charged charged;
    int acc 2 k_budget budget
  | Watchdog_fire { reason } -> str acc 0 k_reason reason
  | Metric_flush { tick } -> int acc 0 k_tick tick
  | Dsq_insert { dsq; pid } ->
    str acc 0 k_dsq dsq;
    int acc 1 k_pid pid
  | Dsq_consume { dsq; pid; wait } ->
    str acc 0 k_dsq dsq;
    int acc 1 k_pid pid;
    int acc 2 k_wait wait
  | Fleet_op { host; op } ->
    int acc 0 k_host host;
    str acc 1 k_op op
  | Req_enqueue { req; tenant } ->
    int acc 0 k_req req;
    int acc 1 k_tenant tenant
  | Req_take { req; pid } | Req_done { req; pid } ->
    int acc 0 k_req req;
    int acc 1 k_pid pid

let args kind =
  let kvs = ref [] in
  iter_args kind
    ~int:(fun kvs _ k v -> kvs := (arg_keys.(k), string_of_int v) :: !kvs)
    ~str:(fun kvs _ k v -> kvs := (arg_keys.(k), v) :: !kvs)
    kvs;
  List.rev !kvs

let pp fmt t =
  Format.fprintf fmt "[%d] %d %s" t.cpu t.ts (name t.kind);
  List.iter (fun (k, v) -> Format.fprintf fmt " %s=%s" k v) (args t.kind)

let to_string t = Format.asprintf "%a" pp t

(* ---------- packed form ---------- *)

type tag =
  | T_switch
  | T_wakeup
  | T_dispatch
  | T_preempt
  | T_yield
  | T_block
  | T_exit
  | T_migrate
  | T_tick
  | T_idle
  | T_lock_acquire
  | T_lock_release
  | T_msg_call
  | T_dsq_insert
  | T_dsq_consume
  | T_cold

let tags =
  [| T_switch; T_wakeup; T_dispatch; T_preempt; T_yield; T_block; T_exit; T_migrate; T_tick;
     T_idle; T_lock_acquire; T_lock_release; T_msg_call; T_dsq_insert; T_dsq_consume; T_cold |]

(* A constant constructor is represented by its position in the type, so
   the index is the value itself: storing a tag costs nothing. *)
external tag_index : tag -> int = "%identity"

let nr_tags = Array.length tags

(* The Enoki-C crossing kinds, in the boundary's own index order; the names
   are [Message.call_name]'s. *)
let call_names =
  [| "select_task_rq"; "task_new"; "task_wakeup"; "task_blocked"; "task_yield"; "task_preempt";
     "task_dead"; "task_departed"; "task_tick"; "pick_next_task"; "pnt_err"; "balance";
     "balance_err"; "migrate_task_rq"; "task_prio_changed"; "task_affinity_changed"; "parse_hint" |]

let find_name names name =
  let rec go i =
    if i = Array.length names then -1 else if String.equal names.(i) name then i else go (i + 1)
  in
  go 0

let call_index name = find_name call_names name

(* Dispatch-queue names by index, so DSQ events pack to ints.  A queue
   interns its name once, when it is created, under a mutex; the table only
   grows, and readers take an immutable snapshot, so any domain decodes an
   index without locking.  Indices depend on creation order across domains;
   only the names they decode to are ever observed. *)
let dsq_table : string array Atomic.t = Atomic.make [||]

let dsq_mutex = Mutex.create ()

let dsq_lookup name = find_name (Atomic.get dsq_table) name

let dsq_index name =
  let i = dsq_lookup name in
  if i >= 0 then i
  else
    Mutex.protect dsq_mutex (fun () ->
        let names = Atomic.get dsq_table in
        let i = find_name names name in
        if i >= 0 then i
        else begin
          Atomic.set dsq_table (Array.append names [| name |]);
          Array.length names
        end)

let dsq_name i = (Atomic.get dsq_table).(i)

(* pid fields encode "no task" as -1 (simulator pids are never negative) *)
let opt_pid = function None -> -1 | Some p -> p

let pack kind k =
  match kind with
  | Sched_switch { prev; next } -> k T_switch (opt_pid prev) (opt_pid next) 0 kind
  | Wakeup { pid; waker_cpu; affinity = None } -> k T_wakeup pid waker_cpu 0 kind
  | Dispatch { pid } -> k T_dispatch pid 0 0 kind
  | Preempt { pid } -> k T_preempt pid 0 0 kind
  | Yield { pid } -> k T_yield pid 0 0 kind
  | Block { pid } -> k T_block pid 0 0 kind
  | Exit { pid } -> k T_exit pid 0 0 kind
  | Migrate { pid; from_cpu; to_cpu } -> k T_migrate pid from_cpu to_cpu kind
  | Tick -> k T_tick 0 0 0 kind
  | Idle -> k T_idle 0 0 0 kind
  | Lock_acquire { lock_id } -> k T_lock_acquire lock_id 0 0 kind
  | Lock_release { lock_id } -> k T_lock_release lock_id 0 0 kind
  | Msg_call { name } ->
    let i = call_index name in
    if i >= 0 then k T_msg_call i 0 0 kind else k T_cold 0 0 0 kind
  | Dsq_insert { dsq; pid } ->
    let i = dsq_lookup dsq in
    if i >= 0 then k T_dsq_insert i pid 0 kind else k T_cold 0 0 0 kind
  | Dsq_consume { dsq; pid; wait } ->
    let i = dsq_lookup dsq in
    if i >= 0 then k T_dsq_consume i pid wait kind else k T_cold 0 0 0 kind
  | Wakeup _ | Pnt_err _ | Panic _ | Failover _ | Overrun _ | Watchdog_fire _ | Metric_flush _
  | Fleet_op _ | Req_enqueue _ | Req_take _ | Req_done _ ->
    k T_cold 0 0 0 kind
