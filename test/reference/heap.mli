(** Mutable binary min-heaps.

    The queue under {!Sim}, the reference event queue that the tests hold
    {!Kernsim.Sim} equal to.  The comparison is supplied at creation; ties are broken by insertion order
    only if the caller encodes a sequence number into the element (the
    simulator does, to keep runs deterministic). *)

type 'a t

(** [create ?on_move ~compare] makes an empty heap ordered by [compare].
    When [on_move] is given it is called as [on_move x i] every time an
    element [x] is (re)placed at index [i] — on add, on every sift swap,
    and when back-filling a removal.  Callers use it to track element
    positions so {!remove_at} can cancel in O(log n). *)
val create : ?on_move:('a -> int -> unit) -> compare:('a -> 'a -> int) -> unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val add : 'a t -> 'a -> unit

(** Smallest element without removing it. *)
val peek : 'a t -> 'a option

(** Remove and return the smallest element. *)
val pop : 'a t -> 'a option

(** [remove_at t i] removes and returns the element currently at index
    [i] (as reported by [on_move]) in O(log n).  Raises
    [Invalid_argument] if [i] is out of bounds. *)
val remove_at : 'a t -> int -> 'a

(** Remove every element for which [f] holds.  O(n log n).  Does not
    notify [on_move] for the removed elements, so it must not be mixed
    with index tracking. *)
val remove_if : 'a t -> ('a -> bool) -> unit
