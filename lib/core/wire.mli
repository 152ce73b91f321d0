(** Varint binary primitives for the record log's wire format (§3.4).

    Integers are LEB128 varints ([put_int] zigzags first, so small negative
    values stay small); strings are length-prefixed raw bytes, which makes
    the format escaping-free: payloads containing newlines, spaces or
    [" => "] cannot corrupt the framing.  Readers raise {!Truncated} when
    the input ends mid-value, which the log decoder uses to salvage every
    complete frame of a cut-off recording. *)

exception Truncated

val put_uint : Buffer.t -> int -> unit

(** Zigzag-mapped varint (safe for negative values). *)
val put_int : Buffer.t -> int -> unit

val put_byte : Buffer.t -> int -> unit

val put_bool : Buffer.t -> bool -> unit

(** Length-prefixed raw bytes; no escaping. *)
val put_str : Buffer.t -> string -> unit

type cursor = { src : string; mutable pos : int }

val cursor : ?pos:int -> string -> cursor

val at_end : cursor -> bool

val get_byte : cursor -> int

val get_uint : cursor -> int

val get_int : cursor -> int

val get_bool : cursor -> bool

val get_str : cursor -> string
