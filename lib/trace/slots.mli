(** Fixed-capacity storage for packed events ({!Event.pack}): the one
    encoding shared by the {!Tracer}'s per-cpu rings and the {!Sanitizer}'s
    trailing window.

    Each slot is [slot_bytes] bytes of one [Bytes] buffer holding [ts],
    the cpu and {!Event.tag_index}, and the three packed ints, as 64-bit
    words; a cold kind's boxed payload goes into a side column allocated on
    first use.  The buffer is never filled: capacity is reserved address
    space, and a buffer's pages become resident only as slots on them are
    written.  A slot that was never written holds garbage, so a caller
    reads only slots it has written.  Indices are bounds-checked. *)

type t

(** Bytes per slot: five 64-bit words. *)
val slot_bytes : int

(** The largest capacity whose buffer fits in [Sys.max_string_length]. *)
val max_capacity : int

(** [create capacity] reserves [capacity] slots.  Raises
    [Invalid_argument] unless [1 <= capacity <= max_capacity]. *)
val create : int -> t

val capacity : t -> int

(** [set t i ~ts ~cpu tag a b c kind] writes slot [i]; [kind] is stored
    only for [T_cold]. *)
val set : t -> int -> ts:int -> cpu:int -> Event.tag -> int -> int -> int -> Event.kind -> unit

(** The timestamp of slot [i]. *)
val ts : t -> int -> int

(** Decode slot [i]; a cold payload stays in place. *)
val get : t -> int -> Event.t

(** Decode slot [i] and release its cold payload, for a slot that is
    consumed. *)
val take : t -> int -> Event.t
