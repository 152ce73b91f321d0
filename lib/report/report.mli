(** Plain-text table rendering for the benchmark harness. *)

(** Print a section banner. *)
val section : string -> unit

(** Print an indented note line. *)
val note : string -> unit

(** [table ~header rows] prints an aligned table; every row must have the
    same arity as [header].  Columns whose data cells are all
    number-shaped are right-aligned so magnitudes line up. *)
val table : header:string list -> string list list -> unit

(** Aligned key/value lines (violation breakdowns, failover counters,
    upgrade stats); prints nothing for an empty list.  Continuation lines
    of multi-line values stay aligned under the value column. *)
val kv : (string * string) list -> unit

(** Format with a fixed number of decimals. *)
val fmt_f1 : float -> string

val fmt_f2 : float -> string

(** Percentage with sign, two decimals (Table 5 style). *)
val fmt_pct : float -> string
