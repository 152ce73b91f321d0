module T = Kernsim.Task
module M = Kernsim.Machine

type result = { p50 : Kernsim.Time.ns; p99 : Kernsim.Time.ns; samples : int }

type params = {
  messages : int;
  workers : int;
  warmup : Kernsim.Time.ns;
  duration : Kernsim.Time.ns;
  message_work : Kernsim.Time.ns;
  worker_work : Kernsim.Time.ns;
  locality_hints : bool;
  pin_one_core : bool;
  seed : int;
}

let default_params ?seed () =
  {
    messages = 2;
    workers = 2;
    warmup = Kernsim.Time.ms 500;
    duration = Kernsim.Time.sec 2;
    message_work = Kernsim.Time.ms 30;
    worker_work = Kernsim.Time.us 1;
    locality_hints = false;
    pin_one_core = false;
    seed = Setup.workload_seed ?seed "schbench";
  }

(* schbench measures from just before the message thread issues the futex
   wake to when the worker starts running, so the waker's own preemption
   mid-sequence counts -- that is exactly what blows the tail up when
   everything is pinned to one core.  [stamps] carries the per-worker t0. *)
let wake_syscall = 900 (* futex syscall cost in the waker *)

(* One worker: wait for a ping, record its wakeup latency, work, reply. *)
let worker_beh ~ping ~reply ~work ~stamp ~hist ~measuring ~observe =
  let st = ref `Wait in
  fun (ctx : T.ctx) ->
    match !st with
    | `Wait ->
      st := `Work;
      T.block ping
    | `Work ->
      if !measuring && !stamp >= 0 then begin
        Stats.Histogram.record hist (ctx.T.now - !stamp);
        observe (ctx.T.now - !stamp)
      end;
      stamp := -1;
      st := `Reply;
      T.compute work
    | `Reply ->
      st := `Wait;
      T.wake reply

(* One message thread: hint its group once, then loop: work (with random
   round-to-round jitter, so distinct message threads drift out of phase),
   then for each worker stamp t0, pay the wake syscall, wake it; collect
   all replies. *)
let message_beh ~pings ~reply ~work ~rng ~group ~worker_pids =
  let n_workers = List.length pings in
  let st = ref `Hints in
  fun (ctx : T.ctx) ->
    match !st with
    | `Hints -> (
      match group with
      | None ->
        st := `Ping pings;
        T.compute 1
      | Some g ->
        (* co-locate self and every worker: one hint per task, self last *)
        let hints =
          List.map (fun pid -> Schedulers.Hints.Locality { pid; group = g }) worker_pids
          @ [ Schedulers.Hints.Locality { pid = ctx.T.self; group = g } ]
        in
        st := `Hint_rest (List.tl hints, `Ping pings);
        T.send_hint ctx (List.hd hints))
    | `Hint_rest ([], _) ->
      st := `Ping pings;
      T.compute 1
    | `Hint_rest (h :: rest, k) ->
      st := `Hint_rest (rest, k);
      T.send_hint ctx h
    | `Ping [] ->
      st := `Collect n_workers;
      T.compute 1
    | `Ping ((ping, stamp) :: rest) ->
      (* timestamp, then the wake syscall runs in our context: if we get
         descheduled here, the sample inflates, as in real schbench *)
      stamp := ctx.T.now;
      st := `Wake (ping, rest);
      T.compute wake_syscall
    | `Wake (ping, rest) ->
      st := `Ping rest;
      T.wake ping
    | `Collect 0 ->
      (* work the message before the next round of pings *)
      st := `Ping pings;
      T.compute ((work / 2) + Stats.Prng.int rng (max 1 work))
    | `Collect k ->
      st := `Collect (k - 1);
      T.block reply

let run (b : Setup.built) (p : params) =
  let m = b.machine in
  let affinity = if p.pin_one_core then Some [ 0 ] else None in
  let hist = Stats.Histogram.create () in
  let measuring = ref false in
  let observe = Setup.request_observer b in
  let rng0 = Stats.Prng.create ~seed:p.seed in
  for i = 0 to p.messages - 1 do
    let rng = Stats.Prng.split rng0 in
    let reply = M.new_chan m in
    let pings =
      List.init p.workers (fun _ -> (M.new_chan m, ref (-1)))
    in
    let worker_pids =
      List.mapi
        (fun j (ping, stamp) ->
          M.spawn m
            {
              (T.default_spec
                 ~name:(Printf.sprintf "worker-%d-%d" i j)
                 (worker_beh ~ping ~reply ~work:p.worker_work ~stamp ~hist ~measuring ~observe))
              with
              T.policy = b.policy;
              group = "worker";
              affinity;
            })
        pings
    in
    let group = if p.locality_hints then Some i else None in
    ignore
      (M.spawn m
         {
           (T.default_spec
              ~name:(Printf.sprintf "message-%d" i)
              (message_beh ~pings ~reply ~work:p.message_work ~rng ~group ~worker_pids))
           with
           T.policy = b.policy;
           group = "message";
           affinity;
         })
  done;
  M.at m ~delay:p.warmup (fun () ->
      Kernsim.Accounting.reset (M.metrics m);
      measuring := true);
  M.run_for m (p.warmup + p.duration);
  {
    p50 = Stats.Histogram.percentile hist 50.0;
    p99 = Stats.Histogram.percentile hist 99.0;
    samples = Stats.Histogram.count hist;
  }

(* Arachne: user-level threads wake each other inside one kernel task per
   message group; wakeup latency is the user-level switch (~1 us with
   scheduling checks), independent of kernel scheduler load. *)
let run_userlevel (_ : Setup.built) (p : params) =
  let user_wakeup = Kernsim.Time.us 1 in
  ignore p;
  { p50 = user_wakeup; p99 = user_wakeup; samples = 1 }
