module T = Kernsim.Task
module M = Kernsim.Machine

type t = {
  machine : M.t;
  rng : Stats.Prng.t;
  gap : Stats.Dist.t;
  (* two ints per waiting request, oldest first: enqueue time, service ns *)
  reqs : Ds.Int_deque.t;
  chan : int;
  latencies : Stats.Histogram.t;
  observe : int -> unit;
  mutable measuring : bool;
  mutable arrivals : int;
  mutable completed : int;
}

let create (b : Setup.built) ~load_kreqs ~seed =
  let rate_per_ns = load_kreqs *. 1000.0 /. 1e9 in
  {
    machine = b.machine;
    rng = Stats.Prng.create ~seed;
    gap = Stats.Dist.exponential ~mean:(1.0 /. rate_per_ns);
    reqs = Ds.Int_deque.create ();
    chan = M.new_chan b.machine;
    latencies = Stats.Histogram.create ();
    observe = Setup.request_observer b;
    measuring = false;
    arrivals = 0;
    completed = 0;
  }

let arrivals t = t.arrivals

(* [left] is the requests still to emit in this batch, -1 once the batch
   is out and the generator sleeps next.  The gap is one float sum of
   [batch] draws, truncated once. *)
let loadgen t ~batch ~service ~wake =
  let left = ref (-1) in
  fun (ctx : T.ctx) ->
    if !left < 0 then begin
      left := batch;
      let gap = ref 0.0 in
      for _ = 1 to batch do
        gap := !gap +. Stats.Dist.sample t.gap t.rng
      done;
      T.sleep (max 1 (int_of_float !gap))
    end
    else if !left = 0 then begin
      left := -1;
      T.compute 1
    end
    else begin
      decr left;
      Ds.Int_deque.push_back t.reqs ctx.T.now;
      Ds.Int_deque.push_back t.reqs (service t.rng);
      t.arrivals <- t.arrivals + 1;
      if wake then T.wake t.chan else T.compute 1
    end

let take t serving =
  let enqueued = Ds.Int_deque.pop_front t.reqs in
  if enqueued < 0 then -1
  else begin
    serving := enqueued;
    Ds.Int_deque.pop_front t.reqs
  end

let complete t (ctx : T.ctx) serving =
  if t.measuring then begin
    let latency = ctx.T.now - !serving in
    Stats.Histogram.record t.latencies latency;
    t.observe latency;
    t.completed <- t.completed + 1
  end;
  serving := -1

(* Three states: blocked-next ([awake] false), take-next, and serving
   (the request's enqueue time in [serving]). *)
let server t =
  let awake = ref false and serving = ref (-1) in
  fun (ctx : T.ctx) ->
    if !serving >= 0 then begin
      complete t ctx serving;
      T.compute 1
    end
    else if not !awake then begin
      awake := true;
      T.block t.chan
    end
    else begin
      let service = take t serving in
      if service < 0 then begin
        awake := false;
        T.compute 1
      end
      else T.compute service
    end

type stats = { achieved_kreqs : float; p99_us : float; p50_us : float }

let run t ~warmup ~duration =
  M.at t.machine ~delay:warmup (fun () ->
      Kernsim.Accounting.reset (M.metrics t.machine);
      t.measuring <- true);
  M.run_for t.machine (warmup + duration);
  let us p = Kernsim.Time.to_us (Stats.Histogram.percentile t.latencies p) in
  {
    achieved_kreqs = float_of_int t.completed /. Kernsim.Time.to_sec duration /. 1000.0;
    p99_us = us 99.0;
    p50_us = us 50.0;
  }
