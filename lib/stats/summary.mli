(** Small-sample summary statistics for benchmark reporting. *)

val mean : float list -> float

val stdev : float list -> float

(** Geometric mean of the absolute values; Table 5 of the paper reports the
    geometric mean of per-benchmark percentage differences. *)
val geomean : float list -> float

(** [percent_diff ~baseline ~value] is the slowdown of [value] relative to
    [baseline] in percent (positive = slower), for higher-is-better
    metrics. *)
val percent_diff : baseline:float -> value:float -> float
