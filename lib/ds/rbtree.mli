(** Immutable red-black trees with ordered keys.

    A persistent ordered map for module code that needs ordered lookup
    over arbitrary keys.  No built-in run queue uses it: each [add]
    allocates its path, so a hot run queue is a {!Pid_fifo} or a
    {!Pid_heap} instead.  All operations are O(log n).

    The implementation maintains the two classical red-black invariants
    (no red node has a red child; every root-to-leaf path crosses the same
    number of black nodes), which the property-based test suite checks
    explicitly. *)

module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

module Make (Key : ORDERED) : sig
  type key = Key.t

  type 'a t

  val empty : 'a t

  val is_empty : 'a t -> bool

  (** Number of bindings; O(1). *)
  val cardinal : 'a t -> int

  (** [add k v t] binds [k] to [v], replacing any previous binding of [k]. *)
  val add : key -> 'a -> 'a t -> 'a t

  (** [remove k t] is [t] without the binding for [k] (unchanged if absent). *)
  val remove : key -> 'a t -> 'a t

  val mem : key -> 'a t -> bool

  val find_opt : key -> 'a t -> 'a option

  (** Binding with the smallest key, or [None] when empty; O(log n). *)
  val min_binding_opt : 'a t -> (key * 'a) option

  val max_binding_opt : 'a t -> (key * 'a) option

  (** In key order. *)
  val iter : (key -> 'a -> unit) -> 'a t -> unit

  val fold : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

  val to_list : 'a t -> (key * 'a) list

  val of_list : (key * 'a) list -> 'a t

  (** [nth t i] is the [i]-th smallest binding; O(n). Raises
      [Invalid_argument] when out of range. *)
  val nth : 'a t -> int -> key * 'a

  (** Internal invariant checks, exposed for the property-based tests. *)

  val invariant_no_red_red : 'a t -> bool

  val invariant_black_height : 'a t -> bool

  val invariant_ordered : 'a t -> bool
end
