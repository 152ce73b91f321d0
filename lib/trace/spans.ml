type kind = Wakeup_to_dispatch | Preempt_to_resched | Migration | Ingress_wait

type t = { pid : int; cpu : int; kind : kind; start_ts : int; stop_ts : int }

(* pending starts, keyed by pid or request id *)
type builder = {
  pending_wake : (int, int) Hashtbl.t;
  pending_preempt : (int, int) Hashtbl.t;
  pending_migrate : (int, int) Hashtbl.t;
  pending_ingress : (int, int) Hashtbl.t;
  mutable spans : t list; (* newest first *)
}

let builder () =
  {
    pending_wake = Hashtbl.create 64;
    pending_preempt = Hashtbl.create 64;
    pending_migrate = Hashtbl.create 64;
    pending_ingress = Hashtbl.create 64;
    spans = [];
  }

let keep_first tbl key ts = if not (Hashtbl.mem tbl key) then Hashtbl.replace tbl key ts

let close b ~pid ~cpu kind start_ts stop_ts =
  b.spans <- { pid; cpu; kind; start_ts; stop_ts } :: b.spans

let add b (ev : Event.t) =
  match ev.kind with
  | Event.Wakeup { pid; _ } ->
    keep_first b.pending_wake pid ev.ts;
    Hashtbl.remove b.pending_preempt pid
  | Event.Preempt { pid } | Event.Yield { pid } -> keep_first b.pending_preempt pid ev.ts
  | Event.Migrate { pid; _ } ->
    (* keep the first migration ts so chained migrations measure the full
       off-cpu displacement, not just the last hop *)
    keep_first b.pending_migrate pid ev.ts
  | Event.Dispatch { pid } ->
    (match Hashtbl.find b.pending_wake pid with
    | start_ts ->
      Hashtbl.remove b.pending_wake pid;
      close b ~pid ~cpu:ev.cpu Wakeup_to_dispatch start_ts ev.ts
    | exception Not_found -> (
      match Hashtbl.find b.pending_preempt pid with
      | start_ts -> close b ~pid ~cpu:ev.cpu Preempt_to_resched start_ts ev.ts
      | exception Not_found -> ()));
    (match Hashtbl.find b.pending_migrate pid with
    | start_ts ->
      Hashtbl.remove b.pending_migrate pid;
      close b ~pid ~cpu:ev.cpu Migration start_ts ev.ts
    | exception Not_found -> ());
    Hashtbl.remove b.pending_preempt pid
  | Event.Block { pid } | Event.Exit { pid } ->
    Hashtbl.remove b.pending_wake pid;
    Hashtbl.remove b.pending_preempt pid;
    Hashtbl.remove b.pending_migrate pid
  | Event.Req_enqueue { req; _ } -> keep_first b.pending_ingress req ev.ts
  | Event.Req_take { req; pid } -> (
    match Hashtbl.find b.pending_ingress req with
    | start_ts ->
      Hashtbl.remove b.pending_ingress req;
      close b ~pid ~cpu:ev.cpu Ingress_wait start_ts ev.ts
    | exception Not_found -> ())
  | Event.Sched_switch _ | Event.Tick | Event.Idle | Event.Pnt_err _ | Event.Lock_acquire _
  | Event.Lock_release _ | Event.Msg_call _ | Event.Panic _ | Event.Failover _ | Event.Overrun _
  | Event.Watchdog_fire _ | Event.Metric_flush _ | Event.Dsq_insert _ | Event.Dsq_consume _
  | Event.Fleet_op _ | Event.Req_done _ -> ()

let finish b = List.rev b.spans

let of_events events =
  let b = builder () in
  List.iter (add b) events;
  finish b

module Private = struct
  let of_events = of_events
end
