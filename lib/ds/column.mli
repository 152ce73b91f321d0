(** Growing the int-indexed columns (per-pid, per-entry-slot state) the
    run-queue primitives and the scheduler modules keep in plain arrays. *)

(** [grow col n fill] is a length-[n] copy of [col] ([n >= length col])
    whose new slots hold [fill]. *)
val grow : 'a array -> int -> 'a -> 'a array
