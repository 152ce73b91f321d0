type ns = Kernsim.Time.ns

type t = {
  nr_cpus : int;
  policy : int;
  now : unit -> ns;
  set_timer : cpu:int -> ns -> unit;
  cancel_timer : cpu:int -> unit;
  resched : cpu:int -> unit;
  send_user : pid:int -> Kernsim.Task.hint -> unit;
  charge : cpu:int -> ns -> unit;
  registry : Metrics.Registry.t option;
  trace_packed : cpu:int -> Trace.Event.tag -> int -> int -> int -> unit;
  locks : Lock.owner;
}

let inert ?(nr_cpus = 8) () =
  {
    nr_cpus;
    policy = 0;
    now = (fun () -> 0);
    set_timer = (fun ~cpu:_ _ -> ());
    cancel_timer = (fun ~cpu:_ -> ());
    resched = (fun ~cpu:_ -> ());
    send_user = (fun ~pid:_ _ -> ());
    charge = (fun ~cpu:_ _ -> ());
    registry = None;
    trace_packed = (fun ~cpu:_ _ _ _ _ -> ());
    locks = Lock.owner None;
  }
