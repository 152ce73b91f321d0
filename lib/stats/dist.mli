(** Sampling from the distributions the workload generators need.

    A distribution is a plain value sampled against a {!Prng.t} supplied
    at sample time, so a single distribution value can drive many
    independent streams. *)

type t

(** Draw one sample. *)
val sample : t -> Prng.t -> float

(** [int_of_float (sample t rng)], bit for bit, with nothing allocated:
    the float never leaves the draw, so it is never boxed.  Hot paths that
    want an integer (a service time in ns) draw with this. *)
val sample_int : t -> Prng.t -> int

(** Always [v]. *)
val constant : float -> t

(** Uniform on [lo, hi). *)
val uniform : lo:float -> hi:float -> t

(** Exponential with the given [mean] (rate 1/mean); models Poisson
    inter-arrival gaps for the open-loop load generators. *)
val exponential : mean:float -> t

(** Bounded Pareto on [lo, hi] with shape [alpha]; heavy-tailed service
    times. *)
val pareto : alpha:float -> lo:float -> hi:float -> t

(** Log-normal parameterised by the underlying normal's [mu]/[sigma].
    The Facebook ETC key-value workload uses generalised-Pareto/log-normal
    shapes; we use this for value-size-driven service times. *)
val lognormal : mu:float -> sigma:float -> t

(** Discrete mixture: [(weight, dist)] pairs, weights need not sum to 1. *)
val mixture : (float * t) list -> t

(** Finite empirical distribution given as [(weight, value)] pairs. *)
val discrete : (float * float) list -> t

(** Zipf-like rank distribution over [n] items with skew [s]; samples a rank
    in [0, n). Uses the rejection-inversion method. *)
val zipf : n:int -> s:float -> t

(** Mean of [n] samples — test helper. *)
val mean_of_samples : t -> Prng.t -> n:int -> float
