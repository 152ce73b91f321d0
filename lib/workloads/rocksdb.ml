module T = Kernsim.Task
module M = Kernsim.Machine

type point = {
  offered_kreqs : float;
  achieved_kreqs : float;
  p99_us : float;
  p50_us : float;
  batch_cpus : float;
}

type params = {
  load_kreqs : float;
  with_batch : bool;
  warmup : Kernsim.Time.ns;
  duration : Kernsim.Time.ns;
  workers : int;
  seed : int;
}

let default_params ?seed ~load_kreqs ~with_batch () =
  {
    load_kreqs;
    with_batch;
    warmup = Kernsim.Time.ms 300;
    duration = Kernsim.Time.ms 1200;
    workers = 50;
    seed = Setup.workload_seed ?seed "rocksdb";
  }

(* the paper's assigned service times *)
let get_service = Kernsim.Time.us 4

let range_service = Kernsim.Time.ms 10

let range_fraction = 0.005

(* core layout on the 8-core box, as §5.4 reserves them *)
let background_cpu = 0

let worker_cpus = [ 1; 2; 3; 4; 5 ]

let loadgen_cpu = 6

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
  (* open-loop Poisson load generator, pinned to its reserved core *)
  let rate_per_ns = p.load_kreqs *. 1000.0 /. 1e9 in
  let gap_dist = Stats.Dist.exponential ~mean:(1.0 /. rate_per_ns) in
  (* requests are emitted in small batches (RX-coalescing style) so the
     generator's own dispatch overhead never throttles the offered load *)
  let batch = 4 in
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
        let service =
          if Stats.Prng.float rng < range_fraction then range_service else get_service
        in
        Queue.push { enqueued = ctx.T.now; service } queue;
        T.wake req_chan
  in
  ignore
    (M.spawn m
       {
         (T.default_spec ~name:"loadgen" loadgen) with
         T.policy = b.cfs_policy;
         group = "loadgen";
         affinity = Some [ loadgen_cpu ];
       });
  (* 50 workers on five cores under the scheduler under test *)
  for i = 1 to p.workers do
    let beh =
      let st = ref `Recv in
      fun (ctx : T.ctx) ->
        match !st with
        | `Recv ->
          st := `Work;
          T.block req_chan
        | `Work -> (
          match Queue.take_opt queue with
          | None ->
            st := `Recv;
            T.compute 1
          | Some req ->
            st := `Done req;
            T.compute req.service)
        | `Done req ->
          if !measuring then begin
            Stats.Histogram.record latencies (ctx.T.now - req.enqueued);
            observe (ctx.T.now - req.enqueued);
            incr completed
          end;
          st := `Work;
          T.compute 1
    in
    let spec =
      {
        (T.default_spec ~name:(Printf.sprintf "rocksdb-%d" i) beh) with
        T.policy = b.policy;
        group = "rocksdb";
        affinity = Some worker_cpus;
        nice = (if b.policy = b.cfs_policy then -20 else 0);
      }
    in
    ignore (M.spawn m spec)
  done;
  (* background housekeeping on its reserved core *)
  let background =
    let st = ref `Work in
    fun (_ : T.ctx) ->
      match !st with
      | `Work ->
        st := `Sleep;
        T.compute (Kernsim.Time.us 50)
      | `Sleep ->
        st := `Work;
        T.sleep (Kernsim.Time.ms 1)
  in
  ignore
    (M.spawn m
       {
         (T.default_spec ~name:"background" background) with
         T.policy = b.cfs_policy;
         group = "background";
         affinity = Some [ background_cpu ];
       });
  (* a ghOSt global agent is a real userspace thread spinning on its
     dedicated core; make it consume the core for real *)
  (match b.agent_core with
  | Some core ->
    let spin (_ : T.ctx) = T.compute (Kernsim.Time.us 100) in
    ignore
      (M.spawn m
         {
           (T.default_spec ~name:"ghost-agent" spin) with
           T.policy = b.cfs_policy;
           group = "ghost-agent";
           nice = -20;
           affinity = Some [ core ];
         })
  | None -> ());
  (* the co-located batch application: CFS, lowest priority, free to roam *)
  if p.with_batch then
    for i = 1 to 8 do
      let hog (_ : T.ctx) = T.compute (Kernsim.Time.ms 1) in
      ignore
        (M.spawn m
           {
             (T.default_spec ~name:(Printf.sprintf "batch-%d" i) hog) with
             T.policy = b.cfs_policy;
             group = "batch";
             nice = 19;
           })
    done;
  M.at m ~delay:p.warmup (fun () ->
      Kernsim.Accounting.reset (M.metrics m);
      measuring := true);
  M.run_for m (p.warmup + p.duration);
  let batch_busy = Kernsim.Accounting.busy_of_group (M.metrics m) "batch" in
  {
    offered_kreqs = p.load_kreqs;
    achieved_kreqs = float_of_int !completed /. Kernsim.Time.to_sec p.duration /. 1000.0;
    p99_us = Kernsim.Time.to_us (Stats.Histogram.percentile latencies 99.0);
    p50_us = Kernsim.Time.to_us (Stats.Histogram.percentile latencies 50.0);
    batch_cpus = float_of_int batch_busy /. float_of_int p.duration;
  }
