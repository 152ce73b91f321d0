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

(* 99.5% GETs, 0.5% range queries *)
let service rng = if Stats.Prng.float rng < range_fraction then range_service else get_service

let run (b : Setup.built) (p : params) =
  let m = b.machine in
  let reqs = Open_loop.create b ~load_kreqs:p.load_kreqs ~seed:p.seed in
  (* the open-loop Poisson load generator, pinned to its reserved core *)
  ignore
    (M.spawn m
       {
         (T.default_spec ~name:"loadgen" (Open_loop.loadgen reqs ~batch:4 ~service ~wake:true)) with
         T.policy = b.cfs_policy;
         group = "loadgen";
         affinity = Some [ loadgen_cpu ];
       });
  (* 50 workers on five cores under the scheduler under test *)
  for i = 1 to p.workers do
    ignore
      (M.spawn m
         {
           (T.default_spec ~name:(Printf.sprintf "rocksdb-%d" i) (Open_loop.server reqs)) with
           T.policy = b.policy;
           group = "rocksdb";
           affinity = Some worker_cpus;
           nice = (if b.policy = b.cfs_policy then -20 else 0);
         })
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
  Setup.spawn_agent b;
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
  let r = Open_loop.run reqs ~warmup:p.warmup ~duration:p.duration in
  let batch_busy = Kernsim.Accounting.busy_of_group (M.metrics m) "batch" in
  {
    offered_kreqs = p.load_kreqs;
    achieved_kreqs = r.achieved_kreqs;
    p99_us = r.p99_us;
    p50_us = r.p50_us;
    batch_cpus = float_of_int batch_busy /. float_of_int p.duration;
  }
