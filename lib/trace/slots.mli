(** Fixed-capacity storage for packed events ({!Event.pack}): each of the
    {!Tracer}'s per-cpu rings is one, and so is the {!Sanitizer}'s
    trailing window.  {!unpack}, the decoder, also serves any subscriber
    that wants the boxed kind back.

    Each slot is [slot_bytes] bytes of one [Bytes] buffer holding [ts],
    the cpu and {!Event.tag_index}, and the three packed ints, as four
    64-bit words: [b] shares a word with the cpu and the tag, so it is
    packed only within 31 signed bits and the cpu within [0, 2^24); an
    event whose fields do not fit is stored as a cold one, whole.  A cold
    kind's boxed payload goes into a side column allocated on first
    use.  The buffer is never filled: capacity is reserved address
    space, and a buffer's pages become resident only as slots on them are
    written.  A slot that was never written holds garbage, so a caller
    reads only slots it has written.  Indices are bounds-checked.

    Writing, decoding and draining slots, and {!unpack}, all live here,
    so the drain inlines the decode. *)

type t

(** The largest capacity whose buffer fits in [Sys.max_string_length]. *)
val max_capacity : int

(** [create capacity] reserves [capacity] slots.  Raises
    [Invalid_argument] unless [1 <= capacity <= max_capacity]. *)
val create : int -> t

val capacity : t -> int

(** [set t i ~ts ~cpu tag a b c kind] writes slot [i]; [kind] is stored
    only for [T_cold].  Fields too wide for the packed word store the
    slot cold, its kind built by {!unpack}: the one case that allocates. *)
val set : t -> int -> ts:int -> cpu:int -> Event.tag -> int -> int -> int -> Event.kind -> unit

(** The timestamp of slot [i]. *)
val ts : t -> int -> int

(** Decode slot [i], leaving it as it is. *)
val get : t -> int -> Event.t

(** Decode slot [i] and release its cold payload, for a slot that is
    consumed. *)
val take : t -> int -> Event.t

(** {2 Runs}

    A run walks slots newest first: from slot [i] back to [i - 1], wrapping
    from slot 0 to slot [capacity - 1].  [n] may not exceed the capacity. *)

(** [count_back t i n ~min_ts] is the number of consecutive slots from [i]
    backwards, at most [n], whose timestamp is at least [min_ts]. *)
val count_back : t -> int -> int -> min_ts:int -> int

(** [take_back t i n acc] takes the [n] slots from [i] backwards, as {!take}
    does, and conses each onto [acc] as it goes: the result holds them
    oldest first, followed by [acc]. *)
val take_back : t -> int -> int -> Event.t list -> Event.t list

(** For the tests only. *)
module Private : sig
  (** Bytes per slot: four 64-bit words. *)
  val slot_bytes : int
end
