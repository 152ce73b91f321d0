(** Bounded single-producer/single-consumer ring buffers.

    These model the shared-memory queues Enoki uses for userspace hints
    (§3.3 of the paper) and for shipping record messages out of the scheduler
    context (§3.4).  Capacity is fixed at creation; when the producer
    overruns the consumer, the push is dropped and counted, mirroring the
    paper's "if the buffer overruns, events may be dropped". *)

type 'a t

(** [create ~capacity] makes an empty ring holding at most [capacity]
    elements.  Raises [Invalid_argument] if [capacity <= 0]. *)
val create : capacity:int -> 'a t

(** [push t x] enqueues [x]; returns [false] (and counts a drop) when full. *)
val push : 'a t -> 'a -> bool

(** Number of pushes rejected because the ring was full. *)
val dropped : 'a t -> int

(** Drain everything currently queued, oldest first. *)
val drain : 'a t -> 'a list
