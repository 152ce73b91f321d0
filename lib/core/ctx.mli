(** The capability context libEnoki hands a scheduler at creation.

    Mirrors the safe kernel interfaces the paper's libEnoki exposes: timers
    (Shinjuku arms a 10 us preemption timer through this), the clock, the
    kernel-to-user reverse queue, compute charging, the metrics registry,
    schedtrace emission and the module's lock owner.  Everything else —
    run-queue manipulation, task state — stays on the Enoki-C side of the
    boundary. *)

type ns = Kernsim.Time.ns

type t = {
  nr_cpus : int;
  policy : int;  (** the policy id user tasks name to attach to this scheduler *)
  now : unit -> ns;
  set_timer : cpu:int -> ns -> unit;  (** one-shot; fires [task_tick] on [cpu] *)
  cancel_timer : cpu:int -> unit;
  resched : cpu:int -> unit;
      (** ask the kernel to re-run [pick_next_task] on [cpu] soon (sets the
          need-resched flag; safe — policy still only changes via picks) *)
  send_user : pid:int -> Kernsim.Task.hint -> unit;
      (** push onto the kernel-to-user reverse queue for [pid] *)
  charge : cpu:int -> ns -> unit;
      (** account scheduler compute time to [cpu] in simulated time; a
          module that thinks for long stretches (or a fault plan injecting
          latency spikes) charges it here, and Enoki-C counts it against
          the per-call budget *)
  registry : Metrics.Registry.t option;
      (** the machine's metrics registry when observability is attached;
          library code ({!Dsq}) registers depth/latency probes through it.
          [None] must never change scheduling decisions *)
  trace_packed : cpu:int -> Trace.Event.tag -> int -> int -> int -> unit;
      (** emit a schedtrace event, in its packed form
          ({!Trace.Tracer.emit_tag}), attributed to [cpu]: nothing is boxed,
          with or without a tracer (a no-op when the machine has no tracer,
          and always inert at userspace) *)
  locks : Lock.owner;
      (** the owner of every lock the module creates ([Lock.create
          ctx.locks]): the loaded instance's lock ids, and its recorder
          and tracer when the machine has them *)
}

(** A context whose effects are inert, with a fresh lock owner nobody
    observes; replay and unit tests construct schedulers against this
    (timers cannot fire at userspace). *)
val inert : ?nr_cpus:int -> unit -> t
