(** Intrusive binary min-heaps of pids.

    A heap holds small non-negative ints (pids) ordered by
    [(key.(pid), pid)]: the pid tiebreak makes the order total, so the
    minimum is the same element a [(key, pid)]-keyed ordered map would
    return first.  The caller owns both per-pid arrays:

    - [key] supplies the ordering value.  It must not change while the pid
      is in a heap; remove the pid, update its key, then add it again;
    - [pos] is maintained by the heap: [pos.(pid)] is the pid's slot while
      it is queued, and [-1] otherwise.

    One pair of [key]/[pos] arrays may serve several heaps (one per cpu),
    as long as each pid sits in at most one of them.  Nothing here
    allocates except growing the slot array.  Built-in CFS and the WFQ
    module keep their per-cpu run-queues in these heaps. *)

type t

(** An empty heap.  Allocates no slot array until the first {!add}. *)
val create : unit -> t

val length : t -> int

(** The minimum pid, or [-1] when the heap is empty. *)
val top : t -> int

(** [nth t i] is the pid in slot [i], for [0 <= i < length t]: slot 0 is
    the minimum and slot [i]'s parent is slot [(i - 1) / 2], so iterating
    the slots visits every queued pid (in heap order, not sorted).  Raises
    [Invalid_argument] outside that range. *)
val nth : t -> int -> int

(** [add t ~key ~pos pid] queues [pid], which must not be queued already
    ([pos.(pid) = -1]). *)
val add : t -> key:int array -> pos:int array -> int -> unit

(** [remove t ~key ~pos pid] unqueues [pid] from [t] and sets [pos.(pid)]
    to [-1]; a no-op when [pos.(pid) < 0]. *)
val remove : t -> key:int array -> pos:int array -> int -> unit
