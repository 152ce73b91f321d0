(** Span wrappers for the two interfaces a scheduler plugs into.

    Both leave behaviour untouched: every wrapped function calls the
    original with the same arguments and returns its result, so a wrapped
    run dispatches the same simulated events as a plain one (the benchmark
    checks this by digest). *)

(** A scheduler module whose every callback runs inside a ["sched"] span
    named after the callback.  [name] is the wrapped module's. *)
module Make (S : Enoki.Sched_trait.S) : Enoki.Sched_trait.S with type t = S.t

(** [sched m] is [Make] applied to a first-class module. *)
val sched : (module Enoki.Sched_trait.S) -> (module Enoki.Sched_trait.S)

(** A registry entry whose Enoki module, if any, is wrapped by {!sched}. *)
val entry : Schedulers.Registry.entry -> Schedulers.Registry.entry

(** [klass family factory] wraps every hook of the scheduler class
    [factory] builds in a span of layer [family] named after the hook. *)
val klass : string -> Kernsim.Sched_class.factory -> Kernsim.Sched_class.factory

(** Cost of the span wrapper itself, measured on a class hook that does
    nothing (see {!Span.calibrate}). *)
val calibrate : unit -> Span.calibration
