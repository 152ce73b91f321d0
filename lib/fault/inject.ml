let tally_fire tally kind =
  match tally with
  | None -> ()
  | Some tbl ->
    let k = Plan.kind_name kind in
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let wrap ?tally ~seed ~(plan : Plan.t) (module S : Enoki.Sched_trait.S) :
    (module Enoki.Sched_trait.S) =
  let rules = Array.of_list plan in
  (module struct
    type t = {
      inner : S.t;
      ctx : Enoki.Ctx.t;
      rng : Stats.Prng.t;
      matched : int array; (* per rule: calls that matched its gate *)
      fired : int array; (* per rule: faults it injected *)
      mutable pids : int list; (* live pids the module knows: forgery pool *)
    }

    let name = S.name ^ "+fault"

    let make ctx inner =
      {
        inner;
        ctx;
        rng = Stats.Prng.create ~seed;
        matched = Array.make (Array.length rules) 0;
        fired = Array.make (Array.length rules) 0;
        pids = [];
      }

    let create ctx = make ctx (S.create ctx)

    let get_policy t = S.get_policy t.inner

    (* First matching armed rule that wins its probability draw fires; at
       most one fault per call.  Rules are checked in plan order so the
       draw sequence — and therefore the whole run — is a pure function
       of (plan, seed, workload). *)
    let decide t ~call =
      let rec go i =
        if i >= Array.length rules then None
        else
          let r = rules.(i) in
          if Plan.matches r ~call then begin
            t.matched.(i) <- t.matched.(i) + 1;
            if
              t.fired.(i) < r.max_fires
              && t.matched.(i) > r.after
              && Stats.Prng.float t.rng < r.prob
            then begin
              t.fired.(i) <- t.fired.(i) + 1;
              tally_fire tally r.kind;
              Some r.kind
            end
            else go (i + 1)
          end
          else go (i + 1)
      in
      go 0

    (* Faults every call can suffer; reply forgeries fall through to the
       per-hook handlers below. *)
    let pre t ~call ~cpu =
      match decide t ~call with
      | Some Plan.Panic -> raise (Plan.Injected call)
      | Some (Plan.Latency ns) | Some (Plan.Wedge ns) ->
        t.ctx.charge ~cpu ns;
        None
      | (Some (Plan.Wrong_reply | Plan.Bad_select | Plan.Corrupt_hint) | None) as other -> other

    let know t pid = if not (List.mem pid t.pids) then t.pids <- pid :: t.pids

    let forget t pid = t.pids <- List.filter (fun p -> p <> pid) t.pids

    (* a stale forged token: generation 0 predates every mint, so the
       boundary's validation must catch it *)
    let forge t ~cpu =
      match t.pids with
      | [] -> Enoki.Schedulable.none
      | pids ->
        let pid = List.nth pids (Stats.Prng.int t.rng (List.length pids)) in
        Enoki.Schedulable.Private.create ~pid ~cpu ~gen:0

    let pick_next_task t ~cpu ~curr ~curr_runtime =
      match pre t ~call:"pick_next_task" ~cpu with
      | Some Plan.Wrong_reply -> forge t ~cpu
      | _ -> S.pick_next_task t.inner ~cpu ~curr ~curr_runtime

    let select_task_rq t ~pid ~waker_cpu ~allowed =
      match pre t ~call:"select_task_rq" ~cpu:waker_cpu with
      | Some Plan.Bad_select -> t.ctx.nr_cpus + 7
      | _ -> S.select_task_rq t.inner ~pid ~waker_cpu ~allowed

    let parse_hint t ~pid ~hint =
      match pre t ~call:"parse_hint" ~cpu:0 with
      | Some Plan.Corrupt_hint -> S.parse_hint t.inner ~pid:(pid lxor 0x2a) ~hint
      | _ -> S.parse_hint t.inner ~pid ~hint

    let pnt_err t ~cpu ~pid ~err ~sched =
      ignore (pre t ~call:"pnt_err" ~cpu);
      S.pnt_err t.inner ~cpu ~pid ~err ~sched

    let task_dead t ~pid =
      ignore (pre t ~call:"task_dead" ~cpu:0);
      forget t pid;
      S.task_dead t.inner ~pid

    let task_blocked t ~pid ~runtime ~cpu =
      ignore (pre t ~call:"task_blocked" ~cpu);
      S.task_blocked t.inner ~pid ~runtime ~cpu

    let task_wakeup t ~pid ~runtime ~waker_cpu ~sched =
      ignore (pre t ~call:"task_wakeup" ~cpu:waker_cpu);
      know t pid;
      S.task_wakeup t.inner ~pid ~runtime ~waker_cpu ~sched

    let task_new t ~pid ~runtime ~prio ~sched =
      ignore (pre t ~call:"task_new" ~cpu:(Enoki.Schedulable.cpu sched));
      know t pid;
      S.task_new t.inner ~pid ~runtime ~prio ~sched

    let task_preempt t ~pid ~runtime ~cpu ~sched =
      ignore (pre t ~call:"task_preempt" ~cpu);
      S.task_preempt t.inner ~pid ~runtime ~cpu ~sched

    let task_yield t ~pid ~runtime ~cpu ~sched =
      ignore (pre t ~call:"task_yield" ~cpu);
      S.task_yield t.inner ~pid ~runtime ~cpu ~sched

    let task_departed t ~pid ~cpu =
      ignore (pre t ~call:"task_departed" ~cpu);
      forget t pid;
      S.task_departed t.inner ~pid ~cpu

    let task_affinity_changed t ~pid ~allowed =
      ignore (pre t ~call:"task_affinity_changed" ~cpu:0);
      S.task_affinity_changed t.inner ~pid ~allowed

    let task_prio_changed t ~pid ~prio =
      ignore (pre t ~call:"task_prio_changed" ~cpu:0);
      S.task_prio_changed t.inner ~pid ~prio

    let task_tick t ~cpu ~queued =
      ignore (pre t ~call:"task_tick" ~cpu);
      S.task_tick t.inner ~cpu ~queued

    let migrate_task_rq t ~pid ~sched =
      ignore (pre t ~call:"migrate_task_rq" ~cpu:(Enoki.Schedulable.cpu sched));
      S.migrate_task_rq t.inner ~pid ~sched

    let balance t ~cpu =
      ignore (pre t ~call:"balance" ~cpu);
      S.balance t.inner ~cpu

    let balance_err t ~cpu ~pid ~sched =
      ignore (pre t ~call:"balance_err" ~cpu);
      S.balance_err t.inner ~cpu ~pid ~sched

    let reregister_prepare t = S.reregister_prepare t.inner

    let reregister_init ctx transfer = make ctx (S.reregister_init ctx transfer)
  end)
