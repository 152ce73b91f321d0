type sample = { ts : int; values : (string * float) list }

let default_interval = 10_000_000 (* 10 ms of simulated time *)

type t = {
  reg : Registry.t;
  ival : int;
  mutable samples : sample list; (* newest first *)
  mutable ticks : int;
  mutable hooks : (ts:int -> unit) list;
}

let create ?(interval = default_interval) reg =
  if interval <= 0 then invalid_arg "Sampler.create: interval must be positive";
  { reg; ival = interval; samples = []; ticks = 0; hooks = [] }

let on_flush t f = t.hooks <- t.hooks @ [ f ]

let snapshot reg =
  let acc = ref [] in
  Registry.iter reg (fun ~name ~help:_ v ->
      match v with
      | Registry.Counter_v n -> acc := (name, float_of_int n) :: !acc
      | Registry.Gauge_v g -> acc := (name, g) :: !acc
      | Registry.Histogram_v h ->
        (* a histogram contributes its volume and two tail points to the
           time series; full distributions live in the summary exporters *)
        acc :=
          (name ^ "_p99", float_of_int (Stats.Histogram.percentile h 99.0))
          :: (name ^ "_p50", float_of_int (Stats.Histogram.percentile h 50.0))
          :: (name ^ "_count", float_of_int (Stats.Histogram.count h))
          :: !acc);
  List.rev !acc

let flush t ~ts =
  t.ticks <- t.ticks + 1;
  t.samples <- { ts; values = snapshot t.reg } :: t.samples;
  List.iter (fun f -> f ~ts) t.hooks

let start t ~now ~defer =
  let rec arm () =
    defer ~delay:t.ival (fun () ->
        flush t ~ts:(now ());
        arm ())
  in
  arm ()

let samples t = List.rev t.samples

let ticks t = t.ticks
