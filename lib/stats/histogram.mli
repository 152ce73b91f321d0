(** Streaming latency histograms with quantile queries.

    Log-linear bucketing in the style of HdrHistogram: values (nanoseconds,
    in this codebase) are recorded into buckets whose width grows
    geometrically, giving bounded relative error (~4% with the default
    sub-bucket resolution) while using O(log range) memory.  All the p50/p99
    numbers in the benchmark tables come out of this module. *)

type t

(** [create ()] covers values from 1 ns up to ~584 years. *)
val create : unit -> t

val record : t -> int -> unit

val count : t -> int

val min : t -> int

val max : t -> int

val mean : t -> float

(** [percentile t p] for [p] in [0, 100]; 0 when empty.  Returns an upper
    bound of the bucket containing the requested rank. *)
val percentile : t -> float -> int

(** Non-empty buckets as [(inclusive upper bound, count)] pairs in
    ascending value order.  [count t] equals the sum of the counts. *)
val to_buckets : t -> (int * int) list

val clear : t -> unit

(** Merge [src] into [dst]. *)
val merge : dst:t -> src:t -> unit
