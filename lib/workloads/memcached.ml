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

(* the cpu time a server spends on a request: its application work plus
   the build's dispatch overhead *)
let service overhead rng = Stats.Dist.sample_int service_dist rng + overhead

let interval = Kernsim.Time.us 500 (* the runtime's load-estimation period *)

let run (b : Setup.built) (p : params) =
  let m = b.machine in
  let reqs = Open_loop.create b ~load_kreqs:p.load_kreqs ~seed:p.seed in
  let overhead = if p.mode = Cfs then kernel_dispatch_overhead else user_dispatch_overhead in
  (* a blocking pool is woken per request; Arachne's activations poll *)
  ignore
    (M.spawn m
       {
         (T.default_spec ~name:"mutilate"
            (Open_loop.loadgen reqs ~batch:8 ~service:(service overhead) ~wake:(p.mode = Cfs)))
         with
         T.policy = b.cfs_policy;
         group = "loadgen";
         affinity = Some [ 0 ];
       });
  (match p.mode with
  | Cfs ->
    (* stock memcached: a blocking thread pool across all cores *)
    for i = 1 to 16 do
      ignore
        (M.spawn m
           {
             (T.default_spec ~name:(Printf.sprintf "mc-worker-%d" i) (Open_loop.server reqs)) with
             T.policy = b.policy;
             group = "memcached";
           })
    done
  | Arachne_native | Arachne_enoki ->
    (* Arachne: polling activations + a runtime driving the core arbiter *)
    let reclaim_flag = Array.make n_activations false in
    let park_chans = Array.init n_activations (fun _ -> M.new_chan m) in
    let activation slot =
      let serving = ref (-1) in
      fun (ctx : T.ctx) ->
        if !serving >= 0 then begin
          Open_loop.complete reqs ctx serving;
          T.compute 1
        end
        else if reclaim_flag.(slot) then begin
          reclaim_flag.(slot) <- false;
          T.block park_chans.(slot)
        end
        else begin
          let service = Open_loop.take reqs serving in
          (* with no request, hold the core and spin for work, Arachne-style *)
          T.compute (if service < 0 then Kernsim.Time.us 2 else service)
        end
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
    let relay = function
      | Schedulers.Hints.Core_grant { slot; cpu = _ } ->
        if slot < n_activations then reclaim_flag.(slot) <- false
      | Schedulers.Hints.Core_reclaim { slot } ->
        if slot < n_activations then reclaim_flag.(slot) <- true
      | _ -> ()
    in
    let arbiter_delay = if p.mode = Arachne_native then socket_round_trip / 2 else 1 in
    (* one period: sleep, estimate the load, request cores, then wake the
       parked activations that are no longer reclaimed, one a step, as
       listed when the request went out (highest slot first) *)
    let sleep = 0 and estimate = 1 and request = 2 and list_wakes = 3 and waking = 4 in
    let st = ref sleep and last_arrivals = ref 0 and want = ref 0 in
    let to_wake = Array.make n_activations 0 and n_wake = ref 0 in
    let runtime (ctx : T.ctx) =
      (* relay arbiter messages to the activations; waking a non-parked
         activation is a harmless semaphore credit it consumes when it
         next parks *)
      List.iter relay ctx.T.inbox;
      let s = !st in
      if s = sleep then begin
        st := estimate;
        T.sleep interval
      end
      else if s = estimate then begin
        let arrivals = Open_loop.arrivals reqs in
        let rate = float_of_int (arrivals - !last_arrivals) /. float_of_int interval in
        last_arrivals := arrivals;
        want :=
          max 2 (min n_activations (1 + int_of_float (ceil (rate *. mean_service_ns *. 1.15))));
        st := request;
        T.compute arbiter_delay
      end
      else if s = request then begin
        st := list_wakes;
        T.send_hint ctx (Schedulers.Hints.Core_request { pid = ctx.T.self; cores = !want })
      end
      else if s = list_wakes then begin
        n_wake := 0;
        for slot = 0 to n_activations - 1 do
          if (not reclaim_flag.(slot)) && M.chan_waiters m park_chans.(slot) > 0 then begin
            to_wake.(!n_wake) <- slot;
            incr n_wake
          end
        done;
        st := waking;
        T.compute arbiter_delay
      end
      else if !n_wake > 0 then begin
        decr n_wake;
        T.wake park_chans.(to_wake.(!n_wake))
      end
      else begin
        st := sleep;
        T.compute 1
      end
    in
    ignore
      (M.spawn m
         {
           (T.default_spec ~name:"arachne-runtime" runtime) with
           T.policy = b.cfs_policy;
           group = "runtime";
           affinity = Some [ 0 ];
         }));
  let r = Open_loop.run reqs ~warmup:p.warmup ~duration:p.duration in
  let busy = Kernsim.Accounting.busy_of_group (M.metrics m) "memcached" in
  {
    offered_kreqs = p.load_kreqs;
    achieved_kreqs = r.achieved_kreqs;
    p99_us = r.p99_us;
    p50_us = r.p50_us;
    avg_cores = float_of_int busy /. float_of_int p.duration;
  }
