(** A double-ended queue specialised to non-negative ints.

    The ring is a plain [int array], so a push boxes nothing and the deque
    is allocation-free in steady state (it only allocates when the ring
    doubles).  Hot machine paths (channel waiter queues) use it for pid
    traffic.

    -1 is the reserved "empty" result of the pop/peek operations, so only
    non-negative values may be stored; pushes raise [Invalid_argument] on
    negative input. *)

type t

val create : unit -> t

val length : t -> int

val is_empty : t -> bool

val push_back : t -> int -> unit

val push_front : t -> int -> unit

(** Front element, removed; -1 when empty. *)
val pop_front : t -> int

(** Back element, removed; -1 when empty. *)
val pop_back : t -> int

(** Front element, not removed; -1 when empty. *)
val peek_front : t -> int

(** Back element, not removed; -1 when empty. *)
val peek_back : t -> int

(** Front-to-back iteration. *)
val iter : (int -> unit) -> t -> unit

val clear : t -> unit
