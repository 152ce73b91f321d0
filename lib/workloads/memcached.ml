module T = Kernsim.Task
module M = Kernsim.Machine

type mode = Cfs | Arachne_native | Arachne_enoki

type point = {
  offered_kreqs : float;
  achieved_kreqs : float;
  p99_us : float;
  p50_us : float;
  avg_cores : float;
}

type params = {
  mode : mode;
  load_kreqs : float;
  warmup : Kernsim.Time.ns;
  duration : Kernsim.Time.ns;
  seed : int;
}

let default_params ?seed ~mode ~load_kreqs () =
  {
    mode;
    load_kreqs;
    warmup = Kernsim.Time.ms 300;
    duration = Kernsim.Time.ms 1200;
    seed = Setup.workload_seed ?seed "memcached";
  }

(* ETC-like request costs, ~16.5 us mean application work, 3% updates *)
let service_dist =
  Stats.Dist.mixture
    [
      (0.90, Stats.Dist.uniform ~lo:10_000.0 ~hi:19_000.0);
      (0.07, Stats.Dist.uniform ~lo:21_000.0 ~hi:34_000.0);
      (0.03, Stats.Dist.uniform ~lo:34_000.0 ~hi:68_000.0);
    ]

let mean_service_ns = 16_500.0

(* per-request dispatch overhead on top of the application work: stock
   memcached pays the kernel thread wake/epoll path per request; Arachne
   dispatches to user threads on an already-running activation *)
let kernel_dispatch_overhead = 4_500

let user_dispatch_overhead = 800

let n_activations = 7

let socket_round_trip = Kernsim.Time.us 50 (* native Arachne arbiter RTT *)

type request = { enqueued : Kernsim.Time.ns; service : Kernsim.Time.ns }

let run (b : Setup.built) (p : params) =
  let m = b.machine in
  let rng = Stats.Prng.create ~seed:p.seed in
  let queue : request Queue.t = Queue.create () in
  let req_chan = M.new_chan m in
  let latencies = Stats.Histogram.create () in
  let measuring = ref false in
  let observe = Setup.request_observer b in
  let completed = ref 0 in
  let arrivals = ref 0 in
  let rate_per_ns = p.load_kreqs *. 1000.0 /. 1e9 in
  let gap_dist = Stats.Dist.exponential ~mean:(1.0 /. rate_per_ns) in
  let server_blocks = p.mode = Cfs in
  (* requests are emitted in small batches (RX-coalescing style) so the
     generator task itself never becomes the bottleneck at high load *)
  let batch = 8 in
  let loadgen =
    let st = ref `Sleep in
    fun (ctx : T.ctx) ->
      match !st with
      | `Sleep ->
        st := `Emit batch;
        let gap = ref 0.0 in
        for _ = 1 to batch do
          gap := !gap +. Stats.Dist.sample gap_dist rng
        done;
        T.sleep (max 1 (int_of_float !gap))
      | `Emit 0 ->
        st := `Sleep;
        T.compute 1
      | `Emit k ->
        st := `Emit (k - 1);
        let service = int_of_float (Stats.Dist.sample service_dist rng) in
        Queue.push { enqueued = ctx.T.now; service } queue;
        incr arrivals;
        if server_blocks then T.wake req_chan else T.compute 1
  in
  ignore
    (M.spawn m
       {
         (T.default_spec ~name:"mutilate" loadgen) with
         T.policy = b.cfs_policy;
         group = "loadgen";
         affinity = Some [ 0 ];
       });
  let record (ctx : T.ctx) req =
    if !measuring then begin
      Stats.Histogram.record latencies (ctx.T.now - req.enqueued);
      observe (ctx.T.now - req.enqueued);
      incr completed
    end
  in
  (match p.mode with
  | Cfs ->
    (* stock memcached: a blocking thread pool across all cores *)
    for i = 1 to 16 do
      let beh =
        let st = ref `Recv in
        fun (ctx : T.ctx) ->
          match !st with
          | `Recv ->
            st := `Take;
            T.block req_chan
          | `Take -> (
            match Queue.take_opt queue with
            | None ->
              st := `Recv;
              T.compute 1
            | Some req ->
              st := `Done req;
              T.compute (req.service + kernel_dispatch_overhead))
          | `Done req ->
            record ctx req;
            st := `Take;
            T.compute 1
      in
      ignore
        (M.spawn m
           {
             (T.default_spec ~name:(Printf.sprintf "mc-worker-%d" i) beh) with
             T.policy = b.policy;
             group = "memcached";
           })
    done
  | Arachne_native | Arachne_enoki ->
    (* Arachne: polling activations + a runtime driving the core arbiter *)
    let reclaim_flag = Array.make n_activations false in
    let park_chans = Array.init n_activations (fun _ -> M.new_chan m) in
    let activation slot =
      let st = ref `Poll in
      fun (ctx : T.ctx) ->
        match !st with
        | `Poll ->
          if reclaim_flag.(slot) then begin
            reclaim_flag.(slot) <- false;
            st := `Poll;
            T.block park_chans.(slot)
          end
          else (
            match Queue.take_opt queue with
            | Some req ->
              st := `Done req;
              T.compute (req.service + user_dispatch_overhead)
            | None ->
              (* hold the core and spin for work, Arachne-style *)
              T.compute (Kernsim.Time.us 2))
        | `Done req ->
          record ctx req;
          st := `Poll;
          T.compute 1
    in
    for slot = 0 to n_activations - 1 do
      ignore
        (M.spawn m
           {
             (T.default_spec ~name:(Printf.sprintf "activation-%d" slot) (activation slot)) with
             T.policy = b.policy;
             group = "memcached";
           })
    done;
    (* the runtime: monitor load, request cores, relay grants/reclaims *)
    let last_arrivals = ref 0 in
    let interval = Kernsim.Time.us 500 in
    let runtime =
      let st = ref `Sleep in
      fun (ctx : T.ctx) ->
        (* relay arbiter messages to the activations *)
        List.iter
          (fun hint ->
            match hint with
            | Schedulers.Hints.Core_grant { slot; cpu = _ } ->
              if slot < n_activations then reclaim_flag.(slot) <- false
            | Schedulers.Hints.Core_reclaim { slot } ->
              if slot < n_activations then reclaim_flag.(slot) <- true
            | _ -> ())
          ctx.T.inbox;
        (* wake any parked activation whose reclaim was rescinded; waking a
           non-parked one is a harmless semaphore credit it consumes when
           it next parks *)
        match !st with
        | `Sleep ->
          st := `Estimate;
          T.sleep interval
        | `Estimate ->
          let new_arrivals = !arrivals - !last_arrivals in
          last_arrivals := !arrivals;
          let rate = float_of_int new_arrivals /. float_of_int interval in
          let want =
            max 2
              (min n_activations (1 + int_of_float (ceil (rate *. mean_service_ns *. 1.15))))
          in
          st := `Wake_granted want;
          if p.mode = Arachne_native then T.compute (socket_round_trip / 2) else T.compute 1
        | `Wake_granted want ->
          st := `Request want;
          T.send_hint ctx (Schedulers.Hints.Core_request { pid = ctx.T.self; cores = want })
        | `Request _ ->
          (* wake parked activations that are no longer reclaimed *)
          let to_wake = ref [] in
          Array.iteri
            (fun slot flagged ->
              if (not flagged) && M.chan_waiters m park_chans.(slot) > 0 then
                to_wake := slot :: !to_wake)
            reclaim_flag;
          st := `Waking !to_wake;
          if p.mode = Arachne_native then T.compute (socket_round_trip / 2) else T.compute 1
        | `Waking [] ->
          st := `Sleep;
          T.compute 1
        | `Waking (slot :: rest) ->
          st := `Waking rest;
          T.wake park_chans.(slot)
    in
    ignore
      (M.spawn m
         {
           (T.default_spec ~name:"arachne-runtime" runtime) with
           T.policy = b.cfs_policy;
           group = "runtime";
           affinity = Some [ 0 ];
         }));
  M.at m ~delay:p.warmup (fun () ->
      Kernsim.Accounting.reset (M.metrics m);
      measuring := true);
  M.run_for m (p.warmup + p.duration);
  let busy = Kernsim.Accounting.busy_of_group (M.metrics m) "memcached" in
  {
    offered_kreqs = p.load_kreqs;
    achieved_kreqs = float_of_int !completed /. Kernsim.Time.to_sec p.duration /. 1000.0;
    p99_us = Kernsim.Time.to_us (Stats.Histogram.percentile latencies 99.0);
    p50_us = Kernsim.Time.to_us (Stats.Histogram.percentile latencies 50.0);
    avg_cores = float_of_int busy /. float_of_int p.duration;
  }
