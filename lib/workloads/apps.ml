module T = Kernsim.Task
module M = Kernsim.Machine

type family =
  | Parallel_compute of { tasks_per_core : float; chunk : Kernsim.Time.ns; steps : int; barrier : bool }
  | Fork_join of { waves : int; tasks_per_wave : int; work : Kernsim.Time.ns; skew : float }
  | Producer_consumer of { pairs : int; items : int; work : Kernsim.Time.ns }
  | Io_mix of { tasks : int; compute : Kernsim.Time.ns; sleep : Kernsim.Time.ns; iters : int }
  | Unbalanced of { tasks : int; base : Kernsim.Time.ns; skew : float; steps : int }

type app = { name : string; unit_ : string; family : family; seed : int }

let us = Kernsim.Time.us

let ms = Kernsim.Time.ms

(* The NAS kernels all run one task per core over barrier-separated
   phases; they differ in phase length and communication intensity. *)
let nas =
  [
    { name = "BT"; unit_ = "Mop/s"; seed = 101;
      family = Parallel_compute { tasks_per_core = 1.0; chunk = ms 4; steps = 40; barrier = true } };
    { name = "CG"; unit_ = "Mop/s"; seed = 102;
      family = Parallel_compute { tasks_per_core = 1.0; chunk = us 400; steps = 300; barrier = true } };
    { name = "EP"; unit_ = "Mop/s"; seed = 103;
      family = Parallel_compute { tasks_per_core = 1.0; chunk = ms 20; steps = 8; barrier = false } };
    { name = "FT"; unit_ = "Mop/s"; seed = 104;
      family = Parallel_compute { tasks_per_core = 1.0; chunk = ms 2; steps = 60; barrier = true } };
    { name = "IS"; unit_ = "Mop/s"; seed = 105;
      family = Parallel_compute { tasks_per_core = 1.0; chunk = us 250; steps = 250; barrier = true } };
    { name = "LU"; unit_ = "Mop/s"; seed = 106;
      family = Parallel_compute { tasks_per_core = 1.0; chunk = us 150; steps = 600; barrier = true } };
    { name = "MG"; unit_ = "Mop/s"; seed = 107;
      family = Parallel_compute { tasks_per_core = 1.0; chunk = ms 1; steps = 120; barrier = true } };
    { name = "SP"; unit_ = "Mop/s"; seed = 108;
      family = Parallel_compute { tasks_per_core = 1.0; chunk = us 600; steps = 250; barrier = true } };
    { name = "UA"; unit_ = "Mop/s"; seed = 109;
      family = Parallel_compute { tasks_per_core = 1.0; chunk = us 800; steps = 150; barrier = true } };
  ]

(* Phoronix apps mapped onto the family whose scheduling behaviour matches
   the real benchmark (names follow the paper's Table 7). *)
let phoronix =
  [
    { name = "Arrayfire BLAS"; unit_ = "GFLOPS"; seed = 201;
      family = Parallel_compute { tasks_per_core = 1.0; chunk = ms 3; steps = 40; barrier = true } };
    { name = "Arrayfire CG"; unit_ = "ms"; seed = 202;
      family = Parallel_compute { tasks_per_core = 1.0; chunk = us 500; steps = 200; barrier = true } };
    { name = "Cassandra Writes"; unit_ = "op/s"; seed = 203;
      family = Io_mix { tasks = 32; compute = us 120; sleep = us 200; iters = 300 } };
    { name = "ASKAP Hogbom"; unit_ = "iter/s"; seed = 204;
      family = Parallel_compute { tasks_per_core = 1.0; chunk = ms 1; steps = 100; barrier = true } };
    { name = "Cpuminer 3xSHA"; unit_ = "kH/s"; seed = 205;
      family = Parallel_compute { tasks_per_core = 2.0; chunk = ms 5; steps = 12; barrier = false } };
    { name = "Cpuminer 4xSHA"; unit_ = "kH/s"; seed = 206;
      family = Parallel_compute { tasks_per_core = 2.0; chunk = ms 4; steps = 15; barrier = false } };
    { name = "Cpuminer Myriad"; unit_ = "kH/s"; seed = 207;
      family = Parallel_compute { tasks_per_core = 4.0; chunk = ms 3; steps = 10; barrier = false } };
    { name = "Cpuminer Blake2"; unit_ = "kH/s"; seed = 208;
      family = Parallel_compute { tasks_per_core = 2.0; chunk = ms 6; steps = 10; barrier = false } };
    { name = "Cpuminer Skein"; unit_ = "kH/s"; seed = 209;
      family = Parallel_compute { tasks_per_core = 4.0; chunk = ms 2; steps = 14; barrier = false } };
    { name = "Ffmpeg x264 Live"; unit_ = "s"; seed = 210;
      family = Fork_join { waves = 40; tasks_per_wave = 12; work = us 800; skew = 0.5 } };
    { name = "GraphicsMagick Resize"; unit_ = "iter/m"; seed = 211;
      family = Fork_join { waves = 30; tasks_per_wave = 16; work = us 600; skew = 0.3 } };
    { name = "OIDN RT.hdr"; unit_ = "img/s"; seed = 212;
      family = Parallel_compute { tasks_per_core = 1.0; chunk = ms 8; steps = 12; barrier = true } };
    { name = "OIDN RT.ldr"; unit_ = "img/s"; seed = 213;
      family = Parallel_compute { tasks_per_core = 1.0; chunk = ms 8; steps = 12; barrier = true } };
    { name = "OIDN RTLightmap"; unit_ = "img/s"; seed = 214;
      family = Parallel_compute { tasks_per_core = 1.0; chunk = ms 16; steps = 8; barrier = true } };
    { name = "Rodinia Leukocyte"; unit_ = "s"; seed = 215;
      family = Parallel_compute { tasks_per_core = 1.0; chunk = ms 2; steps = 80; barrier = true } };
    { name = "Zstd 3 Long"; unit_ = "MB/s"; seed = 216;
      family = Unbalanced { tasks = 12; base = ms 2; skew = 3.0; steps = 25 } };
    { name = "Zstd 8 Long"; unit_ = "MB/s"; seed = 217;
      family = Unbalanced { tasks = 12; base = ms 5; skew = 4.0; steps = 12 } };
    { name = "AVIFEnc 6 Lossless"; unit_ = "s"; seed = 218;
      family = Fork_join { waves = 20; tasks_per_wave = 10; work = ms 1; skew = 0.8 } };
    { name = "Libgav1 Summer 1080p"; unit_ = "FPS"; seed = 219;
      family = Producer_consumer { pairs = 4; items = 400; work = us 300 } };
    { name = "Libgav1 Summer 4k"; unit_ = "FPS"; seed = 220;
      family = Producer_consumer { pairs = 4; items = 150; work = us 900 } };
    { name = "Libgav1 Chimera 1080p"; unit_ = "FPS"; seed = 221;
      family = Producer_consumer { pairs = 6; items = 300; work = us 350 } };
    { name = "Libgav1 Chimera 10bit"; unit_ = "FPS"; seed = 222;
      family = Producer_consumer { pairs = 6; items = 200; work = us 500 } };
    { name = "OneDNN IP 1D"; unit_ = "ms"; seed = 223;
      family = Parallel_compute { tasks_per_core = 1.0; chunk = us 120; steps = 400; barrier = true } };
    { name = "OneDNN IP 3D"; unit_ = "ms"; seed = 224;
      family = Parallel_compute { tasks_per_core = 1.0; chunk = us 250; steps = 300; barrier = true } };
    { name = "OneDNN RNN f32"; unit_ = "ms"; seed = 225;
      family = Parallel_compute { tasks_per_core = 1.0; chunk = ms 1; steps = 150; barrier = true } };
    { name = "OneDNN RNN u8"; unit_ = "ms"; seed = 226;
      family = Parallel_compute { tasks_per_core = 1.0; chunk = us 700; steps = 180; barrier = true } };
    { name = "OneDNN RNN bf16"; unit_ = "ms"; seed = 227;
      family = Parallel_compute { tasks_per_core = 1.0; chunk = us 900; steps = 160; barrier = true } };
  ]

type result = { score : float; elapsed : Kernsim.Time.ns }

(* ---------- behaviours ---------- *)

(* barrier worker: compute a chunk, signal arrival, wait for release *)
let barrier_worker ~arrive ~release ~chunk ~steps =
  let left = ref steps and st = ref `Work in
  fun (_ : T.ctx) ->
    match !st with
    | `Work ->
      if !left = 0 then T.exit
      else begin
        decr left;
        st := `Arrive;
        T.compute chunk
      end
    | `Arrive ->
      st := `Waitrel;
      T.wake arrive
    | `Waitrel ->
      st := `Work;
      T.block release

(* barrier coordinator: collect [n] arrivals, release everyone, repeat *)
let barrier_master ~arrive ~releases ~n ~steps =
  let step = ref 0 and st = ref (`Collect n) in
  fun (_ : T.ctx) ->
    match !st with
    | `Collect 0 ->
      incr step;
      if !step >= steps then begin
        (* last release lets workers observe exit condition *)
        st := `Release (releases, true);
        T.compute 1
      end
      else begin
        st := `Release (releases, false);
        T.compute 1
      end
    | `Collect k ->
      st := `Collect (k - 1);
      T.block arrive
    | `Release ([], final) ->
      if final then T.exit
      else begin
        st := `Collect n;
        T.compute 1
      end
    | `Release (r :: rest, final) ->
      st := `Release (rest, final);
      T.wake r

let plain_worker ~chunk ~steps =
  let left = ref steps in
  fun (_ : T.ctx) ->
    if !left = 0 then T.exit
    else begin
      decr left;
      T.compute chunk
    end

let io_worker ~compute ~sleep ~iters ~rng =
  let left = ref iters and st = ref `Work in
  fun (_ : T.ctx) ->
    match !st with
    | `Work ->
      if !left = 0 then T.exit
      else begin
        decr left;
        st := `Sleep;
        T.compute compute
      end
    | `Sleep ->
      st := `Work;
      (* jittered I/O wait *)
      T.sleep (sleep + Stats.Prng.int rng (max 1 (sleep / 2)))

let producer ~items ~work ~chan =
  let left = ref items and st = ref `Work in
  fun (_ : T.ctx) ->
    match !st with
    | `Work ->
      if !left = 0 then T.exit
      else begin
        decr left;
        st := `Send;
        T.compute work
      end
    | `Send ->
      st := `Work;
      T.wake chan

let consumer ~items ~work ~chan =
  let left = ref items and st = ref `Recv in
  fun (_ : T.ctx) ->
    match !st with
    | `Recv ->
      if !left = 0 then T.exit
      else begin
        decr left;
        st := `Work;
        T.block chan
      end
    | `Work ->
      st := `Recv;
      T.compute work

(* wave spawner for fork-join apps *)
let forker ~waves ~tasks_per_wave ~work ~skew ~rng ~policy =
  let wave = ref 0 and st = ref `Spawn and spawned = ref 0 in
  fun (ctx : T.ctx) ->
    match !st with
    | `Spawn ->
      if !wave >= waves then T.exit
      else if !spawned >= tasks_per_wave then begin
        spawned := 0;
        incr wave;
        st := `Wait;
        (* the parent works while the wave runs *)
        T.compute (work / 2)
      end
      else begin
        incr spawned;
        let jitter = 1.0 +. (skew *. Stats.Prng.float rng) in
        let w = int_of_float (float_of_int work *. jitter) in
        T.spawn ctx
          {
            (T.default_spec ~name:"wave-task" (plain_worker ~chunk:w ~steps:1)) with
            T.policy;
            group = "app";
          }
      end
    | `Wait ->
      st := `Spawn;
      T.compute 1

(* ---------- work accounting ---------- *)

let total_work nr_cpus = function
  | Parallel_compute { tasks_per_core; chunk; steps; _ } ->
    let tasks = max 1 (int_of_float (tasks_per_core *. float_of_int nr_cpus)) in
    float_of_int (tasks * chunk * steps)
  | Fork_join { waves; tasks_per_wave; work; skew } ->
    float_of_int (waves * tasks_per_wave * work) *. (1.0 +. (skew /. 2.0))
  | Producer_consumer { pairs; items; work } -> float_of_int (2 * pairs * items * work)
  | Io_mix { tasks; compute; iters; _ } -> float_of_int (tasks * compute * iters)
  | Unbalanced { tasks; base; skew; steps } ->
    float_of_int (tasks * base * steps) *. (1.0 +. (skew /. 2.0))

let run (b : Setup.built) (app : app) =
  let m = b.machine in
  let nr = Kernsim.Topology.nr_cpus (M.topology m) in
  let rng = Stats.Prng.create ~seed:app.seed in
  let spec name beh = { (T.default_spec ~name beh) with T.policy = b.policy; group = "app" } in
  (match app.family with
  | Parallel_compute { tasks_per_core; chunk; steps; barrier } ->
    let tasks = max 1 (int_of_float (tasks_per_core *. float_of_int nr)) in
    if barrier then begin
      let arrive = M.new_chan m in
      let releases = List.init tasks (fun _ -> M.new_chan m) in
      List.iteri
        (fun i release ->
          ignore
            (M.spawn m
               (spec (Printf.sprintf "%s-w%d" app.name i)
                  (barrier_worker ~arrive ~release ~chunk ~steps))))
        releases;
      ignore (M.spawn m (spec (app.name ^ "-master") (barrier_master ~arrive ~releases ~n:tasks ~steps)))
    end
    else
      for i = 0 to tasks - 1 do
        ignore (M.spawn m (spec (Printf.sprintf "%s-w%d" app.name i) (plain_worker ~chunk ~steps)))
      done
  | Fork_join { waves; tasks_per_wave; work; skew } ->
    ignore
      (M.spawn m
         (spec (app.name ^ "-fork") (forker ~waves ~tasks_per_wave ~work ~skew ~rng ~policy:b.policy)))
  | Producer_consumer { pairs; items; work } ->
    for i = 0 to pairs - 1 do
      let chan = M.new_chan m in
      ignore (M.spawn m (spec (Printf.sprintf "%s-prod%d" app.name i) (producer ~items ~work ~chan)));
      ignore (M.spawn m (spec (Printf.sprintf "%s-cons%d" app.name i) (consumer ~items ~work ~chan)))
    done
  | Io_mix { tasks; compute; sleep; iters } ->
    for i = 0 to tasks - 1 do
      let rng = Stats.Prng.split rng in
      ignore
        (M.spawn m (spec (Printf.sprintf "%s-io%d" app.name i) (io_worker ~compute ~sleep ~iters ~rng)))
    done
  | Unbalanced { tasks; base; skew; steps } ->
    for i = 0 to tasks - 1 do
      let jitter = 1.0 +. (skew *. Stats.Prng.float rng) in
      let chunk = int_of_float (float_of_int base *. jitter) in
      ignore (M.spawn m (spec (Printf.sprintf "%s-u%d" app.name i) (plain_worker ~chunk ~steps)))
    done);
  let started = M.now m in
  (* run to completion, with a generous safety cap *)
  let cap = Kernsim.Time.sec 120 in
  let rec drain () =
    M.run_for m (Kernsim.Time.ms 100);
    let alive =
      List.exists (fun (task : T.t) -> task.T.state <> T.Dead) (M.tasks m)
    in
    if alive && M.now m - started < cap then drain ()
  in
  drain ();
  (* completion = the last task exit, not the polling step boundary *)
  let last_exit =
    List.fold_left
      (fun acc (task : T.t) ->
        match task.T.exited_at with Some t -> max acc (t - started) | None -> acc)
      0 (M.tasks m)
  in
  let elapsed = max 1 (if last_exit > 0 then last_exit else M.now m - started) in
  { score = total_work nr app.family /. float_of_int elapsed *. 1000.0; elapsed }
