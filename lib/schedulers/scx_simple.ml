(* sched_ext's scx_simple: one global weighted-vtime DSQ.  Tasks enqueue at
   their own vtime (clamped so sleepers bank at most one slice of lag), idle
   cpus refill from the global queue in vtime order, and deschedules charge
   weight-scaled runtime — the whole policy is this file. *)

module A = Dsq_sched.Api

let slice_ns = Kernsim.Time.ms 20

module P = struct
  type state = { q : Dsq.t; mutable vtime_now : int }

  let name = "scx-simple"

  let init api = { q = A.shared_dsq api ~mode:Dsq.Vtime "global"; vtime_now = 0 }

  let select_cpu _st api (task : Dsq_sched.task) ~waker_cpu:_ ~allowed =
    A.select_idle api ~prev_cpu:task.cpu ~allowed

  let enqueue st api (task : Dsq_sched.task) =
    if task.vtime < st.vtime_now - slice_ns then task.vtime <- st.vtime_now - slice_ns;
    A.insert api st.q task

  let dispatch st api ~cpu = ignore (A.move_to_local api ~cpu st.q)

  let stopping st _api (task : Dsq_sched.task) ~ran ~runnable:_ =
    task.vtime <- task.vtime + Dsq_sched.weighted ran ~weight:task.weight;
    if task.vtime > st.vtime_now then st.vtime_now <- task.vtime

  let steal st api ~cpu = A.steal_head api st.q ~cpu

  let tick _st _api ~cpu:_ ~queued:_ = ()
end

include Dsq_sched.Make (P)
