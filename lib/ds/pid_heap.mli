(** Intrusive binary min-heaps of small ints.

    A heap holds small non-negative ints ordered by
    [(key.(x), tie.(x), x)]: the index tiebreak makes the order total, so
    the minimum is the same element a [(key, tie, x)]-keyed ordered map
    would return first.  The elements are pids (built-in CFS and WFQ
    order [(vruntime, pid)], EDF [(deadline, pid)]) or the entry slots of
    a {!Pid_fifo} (rt-fifo orders [(prio, seq)] over them, and a vtime
    dispatch queue [(vtime, seq)]), so one pid may sit in a queue twice.
    A heap that needs no tie column passes [key] as [tie]: equal keys then
    fall through to the index.  The caller owns the three arrays:

    - [key] and [tie] supply the ordering.  They must not change while the
      element is in a heap; remove it, update them, then add it again;
    - [pos] is maintained by the heap: [pos.(x)] is the element's slot
      while it is queued, and [-1] otherwise.

    One set of arrays may serve several heaps (one per cpu), as long as
    each element sits in at most one of them.  Nothing here allocates
    except growing the slot array. *)

type t

(** An empty heap.  Allocates no slot array until the first {!add}. *)
val create : unit -> t

val length : t -> int

(** The minimum element, or [-1] when the heap is empty. *)
val top : t -> int

(** [nth t i] is the element in slot [i], for [0 <= i < length t]: slot 0
    is the minimum and slot [i]'s parent is slot [(i - 1) / 2], so
    iterating the slots visits every queued element (in heap order, not
    sorted).  Raises [Invalid_argument] outside that range. *)
val nth : t -> int -> int

(** [add t ~key ~tie ~pos x] queues [x], which must not be queued already
    ([pos.(x) = -1]). *)
val add : t -> key:int array -> tie:int array -> pos:int array -> int -> unit

(** [remove t ~key ~tie ~pos x] unqueues [x] from [t] and sets [pos.(x)]
    to [-1]; a no-op when [pos.(x) < 0]. *)
val remove : t -> key:int array -> tie:int array -> pos:int array -> int -> unit
