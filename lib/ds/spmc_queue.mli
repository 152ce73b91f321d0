(** Single-producer multi-consumer take-queue over a fixed batch.

    The whole batch is published at construction; consumers in any number
    of domains claim items with one [Atomic.fetch_and_add] each — lock-free,
    wait-free, and in a single total order (ascending index), which is what
    makes pool runs deterministic to merge: item [i] is item [i] no matter
    which domain claimed it.

    A queue is one batch: it is never refilled.  Producers wanting a second
    round build a second queue (see {!Domain_pool}, which publishes a fresh
    queue per batch precisely so a straggler domain still draining an old
    batch can never claim work from the next one).

    Domain-safety contract: the backing array must not be mutated after
    {!of_array}; [pop] is safe from any number of domains concurrently. *)

type 'a t

(** [of_array items] wraps [items] as a take-queue.  The array is shared,
    not copied — the caller must not mutate it afterwards. *)
val of_array : 'a array -> 'a t

(** Claim the next item, or [None] once the batch is exhausted.  Safe from
    any domain; each item is handed out exactly once. *)
val pop : 'a t -> 'a option
