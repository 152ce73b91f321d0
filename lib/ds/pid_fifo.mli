(** Intrusive FIFO lists of pid entries.

    A queue is a doubly linked list of entries, each carrying a pid and a
    value (a scheduler's token, say), over entry slots kept in int arrays
    with a free list, plus pid-indexed [count]/[at] columns.  Push at
    either end, pop, remove by pid and finding a pid are O(1) and allocate
    nothing once the slot pool and the pid columns have grown to their
    working size.

    A pid may be queued more than once (a module fed wrong replies under
    fault injection can be woken while still queued); {!find} and
    {!remove} then fall back to a scan from the head for the pid's oldest
    entry, exactly as a deque of [(pid, value)] pairs searched front to
    back would.  Negative pids are allowed and always take that path.

    Entries are small ints below {!capacity}: a caller may keep its own
    per-entry columns (a vtime, a sequence number) indexed by them, and
    order the entries with a {!Pid_heap} instead of by the list. *)

type 'a t

(** An empty queue.  [dummy] fills free value slots, so a dequeued value
    is not kept alive, and is what {!pop_front} and {!remove} return when
    there is nothing to take. *)
val create : dummy:'a -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

(** Every entry is below [capacity t]; a push may raise it. *)
val capacity : 'a t -> int

val push_back : 'a t -> int -> 'a -> unit

val push_front : 'a t -> int -> 'a -> unit

(** The first entry, or [-1] when empty. *)
val head : 'a t -> int

(** The last entry (the one a {!push_back} just made), or [-1]. *)
val tail : 'a t -> int

(** The entry after [e] in list order, or [-1]. *)
val next : 'a t -> int -> int

val pid : 'a t -> int -> int

val value : 'a t -> int -> 'a

val set_value : 'a t -> int -> 'a -> unit

(** [take t e] unlinks entry [e], frees its slot and returns its value. *)
val take : 'a t -> int -> 'a

(** Entries queued for [pid]; always 0 for a negative pid, which is not
    indexed. *)
val count : 'a t -> int -> int

(** The pid's oldest entry, or [-1]. *)
val find : 'a t -> int -> int

(** Take the pid's oldest entry; the dummy when it has none. *)
val remove : 'a t -> int -> 'a

(** Take the head; the dummy when empty. *)
val pop_front : 'a t -> 'a
