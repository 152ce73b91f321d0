(** Deterministic pseudo-random number generation.

    Every source of randomness in the simulator and the workload generators
    flows from one of these explicitly-seeded streams, which is what makes
    whole simulation runs (and therefore record/replay) reproducible.

    The generator is xoshiro256** seeded through splitmix64, both from
    Blackman & Vigna; splitting a fresh independent stream is cheap.  The
    four 64-bit state words live in one 32-byte buffer, read and written
    as raw words, so {!next}, {!int}, {!bits53} and {!bool} allocate
    nothing ({!float} boxes only its result when called from another
    module).

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

(** The 53 bits behind {!float}: [float t] is
    [float_of_int (bits53 t) *. 0x1p-53].  A caller that scales the draw
    itself keeps the float local to its own function, so nothing is boxed
    (this build compiles modules opaquely: a float returned across a
    module boundary is always boxed). *)
val bits53 : t -> int

(** [int t bound] is uniform in [0, bound). Raises when [bound <= 0]. *)
val int : t -> int -> int
