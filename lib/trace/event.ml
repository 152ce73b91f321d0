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

let name = function
  | Sched_switch _ -> "sched_switch"
  | Wakeup _ -> "wakeup"
  | Dispatch _ -> "dispatch"
  | Preempt _ -> "preempt"
  | Yield _ -> "yield"
  | Block _ -> "block"
  | Exit _ -> "exit"
  | Migrate _ -> "migrate"
  | Tick -> "tick"
  | Idle -> "idle"
  | Pnt_err _ -> "pnt_err"
  | Lock_acquire _ -> "lock_acquire"
  | Lock_release _ -> "lock_release"
  | Msg_call _ -> "msg_call"
  | Panic _ -> "panic"
  | Failover _ -> "failover"
  | Overrun _ -> "overrun"
  | Watchdog_fire _ -> "watchdog_fire"
  | Metric_flush _ -> "metric_flush"
  | Dsq_insert _ -> "dsq_insert"
  | Dsq_consume _ -> "dsq_consume"
  | Fleet_op _ -> "fleet_op"
  | Req_enqueue _ -> "req_enqueue"
  | Req_take _ -> "req_take"
  | Req_done _ -> "req_done"

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

(* One match names every kind's payload fields, in export order; [args]
   and the exporters' direct writers are both built on it.  [int] and [str]
   get the field's 0-based position so a writer can place separators
   without per-event state.  A [Sched_switch] side with no task reads
   "idle". *)
let iter_args kind ~int ~str acc =
  match kind with
  | Sched_switch { prev; next } ->
    (match prev with Some p -> int acc 0 "prev" p | None -> str acc 0 "prev" "idle");
    (match next with Some p -> int acc 1 "next" p | None -> str acc 1 "next" "idle")
  | Wakeup { pid; waker_cpu; affinity } -> (
    int acc 0 "pid" pid;
    int acc 1 "waker_cpu" waker_cpu;
    match affinity with
    | None -> ()
    | Some cpus -> str acc 2 "affinity" (String.concat "," (List.map string_of_int cpus)))
  | Dispatch { pid } | Preempt { pid } | Yield { pid } | Block { pid } | Exit { pid } ->
    int acc 0 "pid" pid
  | Migrate { pid; from_cpu; to_cpu } ->
    int acc 0 "pid" pid;
    int acc 1 "from" from_cpu;
    int acc 2 "to" to_cpu
  | Tick | Idle -> ()
  | Pnt_err { pid; err } ->
    int acc 0 "pid" pid;
    str acc 1 "err" err
  | Lock_acquire { lock_id } | Lock_release { lock_id } -> int acc 0 "lock" lock_id
  | Msg_call { name } -> str acc 0 "call" name
  | Panic { call; reason } ->
    str acc 0 "call" call;
    str acc 1 "reason" reason
  | Failover { fallback } -> str acc 0 "fallback" fallback
  | Overrun { call; charged; budget } ->
    str acc 0 "call" call;
    int acc 1 "charged" charged;
    int acc 2 "budget" budget
  | Watchdog_fire { reason } -> str acc 0 "reason" reason
  | Metric_flush { tick } -> int acc 0 "tick" tick
  | Dsq_insert { dsq; pid } ->
    str acc 0 "dsq" dsq;
    int acc 1 "pid" pid
  | Dsq_consume { dsq; pid; wait } ->
    str acc 0 "dsq" dsq;
    int acc 1 "pid" pid;
    int acc 2 "wait" wait
  | Fleet_op { host; op } ->
    int acc 0 "host" host;
    str acc 1 "op" op
  | Req_enqueue { req; tenant } ->
    int acc 0 "req" req;
    int acc 1 "tenant" tenant
  | Req_take { req; pid } | Req_done { req; pid } ->
    int acc 0 "req" req;
    int acc 1 "pid" pid

let args kind =
  let kvs = ref [] in
  iter_args kind
    ~int:(fun kvs _ k v -> kvs := (k, string_of_int v) :: !kvs)
    ~str:(fun kvs _ k v -> kvs := (k, v) :: !kvs)
    kvs;
  List.rev !kvs

let pp fmt t =
  Format.fprintf fmt "[%d] %d %s" t.cpu t.ts (name t.kind);
  List.iter (fun (k, v) -> Format.fprintf fmt " %s=%s" k v) (args t.kind)

let to_string t = Format.asprintf "%a" pp t
