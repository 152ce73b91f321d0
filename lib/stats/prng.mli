(** Deterministic pseudo-random number generation.

    Every source of randomness in the simulator and the workload generators
    flows from one of these explicitly-seeded streams, which is what makes
    whole simulation runs (and therefore record/replay) reproducible.

    The generator is xoshiro256** seeded through splitmix64, both from
    Blackman & Vigna; splitting a fresh independent stream is cheap.  The
    four 64-bit state words live in one 32-byte buffer, read and written
    as raw words, so {!next}, {!int} and {!float} allocate nothing (a
    caller in another module gets {!float}'s result unboxed because the
    release build inlines it; an [-opaque] build would box it).

    Domain-safety contract: a [t] is plain mutable state with no global
    backing — safe across domains only with one owner at a time.  Code
    that fans out across domains must {!split} one stream per independent
    unit {e before} the fan-out, in a fixed order (the fleet splits
    traffic/lb/chaos streams at build time and draws from them only on the
    coordinating domain), so the draw sequence — and therefore the whole
    run — is identical for any [-j]. *)

type t

(** [create ~seed] builds a generator; equal seeds yield equal streams. *)
val create : seed:int -> t

(** A new generator whose stream is independent of [t]'s future output. *)
val split : t -> t

(** Uniform non-negative int in [0, 2^62). *)
val next : t -> int

(** Uniform float in [0, 1). *)
val float : t -> float

(** [int t bound] is uniform in [0, bound). Raises when [bound <= 0]. *)
val int : t -> int -> int
