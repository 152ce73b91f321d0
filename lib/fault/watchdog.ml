type ns = int

type config = {
  panic_burst : int;
  overrun_burst : int;
  window : ns;
  starvation : bool;
  cooldown : ns;
  max_fires : int;
}

let default_config =
  {
    panic_burst = 3;
    overrun_burst = 3;
    window = 100_000_000;
    starvation = true;
    cooldown = 50_000_000;
    max_fires = 8;
  }

type fire = { at : ns; reason : string }

type t = {
  config : config;
  sanitizer : Trace.Sanitizer.t option;
  action : reason:string -> at:ns -> unit;
  mutable tracer : Trace.Tracer.t option;
  mutable panic_ts : ns list; (* newest first, pruned to the window *)
  mutable overrun_ts : ns list;
  mutable starved_seen : int;
  mutable fires : fire list; (* newest first *)
  mutable last_fire : ns;
}

let create ?(config = default_config) ?sanitizer ~action () =
  {
    config;
    sanitizer;
    action;
    tracer = None;
    panic_ts = [];
    overrun_ts = [];
    starved_seen = 0;
    fires = [];
    last_fire = min_int;
  }

let fires t = List.rev t.fires

let fire t ~at ~reason =
  if
    List.length t.fires < t.config.max_fires
    && (t.fires = [] || at - t.last_fire >= t.config.cooldown)
  then begin
    t.fires <- { at; reason } :: t.fires;
    t.last_fire <- at;
    (* a fresh detection window for whatever scheduler comes next *)
    t.panic_ts <- [];
    t.overrun_ts <- [];
    (match t.tracer with
    | Some tr -> Trace.Tracer.emit tr ~ts:at ~cpu:0 (Trace.Event.Watchdog_fire { reason })
    | None -> ());
    t.action ~reason ~at
  end

let prune t now l = List.filter (fun ts -> now - ts <= t.config.window) l

(* The trigger checks, on packed events (see [Trace.Tracer.subscriber]):
   panics and overruns arrive cold, the starvation poll rides cpu 0's
   tick. *)
let step t ~ts ~cpu (tag : Trace.Event.tag) _ _ _ cold =
  match (tag, cold) with
  | T_cold, Trace.Event.Panic _ ->
    t.panic_ts <- ts :: prune t ts t.panic_ts;
    let n = List.length t.panic_ts in
    if n >= t.config.panic_burst then
      fire t ~at:ts
        ~reason:(Printf.sprintf "panic burst: %d module panics within %dns" n t.config.window)
  | T_cold, Trace.Event.Overrun { call; _ } ->
    t.overrun_ts <- ts :: prune t ts t.overrun_ts;
    let n = List.length t.overrun_ts in
    if n >= t.config.overrun_burst then
      fire t ~at:ts
        ~reason:
          (Printf.sprintf "wedged: %d call-budget overruns within %dns (last: %s)" n
             t.config.window call)
  | T_tick, _ when cpu = 0 -> (
    match t.sanitizer with
    | Some s when t.config.starvation ->
      let starved = Trace.Sanitizer.count_of_kind s Trace.Sanitizer.Starvation in
      if starved > t.starved_seen then begin
        t.starved_seen <- starved;
        fire t ~at:ts
          ~reason:(Printf.sprintf "sanitizer reported starvation (%d finding%s)" starved
                     (if starved = 1 then "" else "s"))
      end
    | _ -> ())
  | _ -> ()

let attach t tracer =
  t.tracer <- Some tracer;
  Trace.Tracer.subscribe tracer (step t)
