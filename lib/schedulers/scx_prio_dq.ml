(* The priority-based dual-queue scheduler (SNIPPETS.md): two shared FIFO
   DSQs — high for interactive tasks (negative nice), low for batch — with
   O(1) enqueue/dispatch on both.  A starvation-promotion counter forces one
   low-queue dispatch after [promote_after] consecutive high-queue
   dispatches while the low queue waits, bounding batch starvation.  The
   source repo claims 65% lower dispatch latency and 33% fewer context
   switches than CFS; EXPERIMENTS.md holds what we measure in the
   simulator's dsq bench suite. *)

module A = Dsq_sched.Api

let promote_after = 4

let high_nice_threshold = 0

(* Which queue the next dispatch drains.  Pulled out of the policy so the
   property tests can check the bound directly: while the low queue is
   non-empty, at most [promote_after] consecutive dispatches come from the
   high queue. *)
let pick_source ~streak ~low_queued =
  if low_queued && streak >= promote_after then `Low else `High

module P = struct
  type state = { high : Dsq.t; low : Dsq.t; mutable streak : int }

  let name = "scx-prio-dq"

  let init api = { high = A.shared_dsq api "high"; low = A.shared_dsq api "low"; streak = 0 }

  let select_cpu _st api (task : Dsq_sched.task) ~waker_cpu:_ ~allowed =
    A.select_idle api ~prev_cpu:task.cpu ~allowed

  let enqueue st api (task : Dsq_sched.task) =
    A.insert api (if task.prio < high_nice_threshold then st.high else st.low) task

  let try_low st api ~cpu =
    A.move_to_local api ~cpu st.low
    && begin
      st.streak <- 0;
      true
    end

  let try_high st api ~cpu ~low_queued =
    A.move_to_local api ~cpu st.high
    && begin
      if low_queued then st.streak <- st.streak + 1;
      true
    end

  let dispatch st api ~cpu =
    let low_queued = A.queued api st.low > 0 in
    match pick_source ~streak:st.streak ~low_queued with
    | `Low -> ignore (try_low st api ~cpu || try_high st api ~cpu ~low_queued)
    | `High -> ignore (try_high st api ~cpu ~low_queued || try_low st api ~cpu)

  let stopping _st _api _task ~ran:_ ~runnable:_ = ()

  let steal st api ~cpu =
    let pid = A.steal_head api st.high ~cpu in
    if pid >= 0 then pid else A.steal_head api st.low ~cpu

  let tick _st _api ~cpu:_ ~queued:_ = ()
end

include Dsq_sched.Make (P)

module Private = struct
  let promote_after = promote_after

  let pick_source = pick_source
end
