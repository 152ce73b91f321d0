(** A FIFO queue specialised to non-negative ints.

    The ring is a plain [int array], so a push boxes nothing and the deque
    is allocation-free in steady state (it only allocates when the ring
    doubles).  Hot machine paths (channel waiter queues) use it for pid
    traffic.

    -1 is the reserved "empty" result of {!pop_front}, so only
    non-negative values may be stored; pushes raise [Invalid_argument] on
    negative input. *)

type t

val create : unit -> t

val length : t -> int

val is_empty : t -> bool

val push_back : t -> int -> unit

(** Front element, removed; -1 when empty. *)
val pop_front : t -> int
