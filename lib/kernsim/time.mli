(** Simulated time.

    The whole simulator counts nanoseconds in a plain [int]; 63 bits covers
    ~292 simulated years, far beyond any experiment here. *)

type ns = int

val ns : int -> ns

val us : int -> ns

val ms : int -> ns

val sec : int -> ns

val to_us : ns -> float

val to_ms : ns -> float

val to_sec : ns -> float

val to_string : ns -> string
