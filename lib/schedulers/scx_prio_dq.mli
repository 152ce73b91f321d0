(** The dual-queue O(1) priority DSQ policy: high/low shared FIFO queues
    with a starvation-promotion counter. *)

include Enoki.Sched_trait.S

(** For the tests only. *)
module Private : sig
  (** Consecutive high-queue dispatches (while the low queue waits) before
      one low-queue dispatch is forced. *)
  val promote_after : int

  (** The dispatch decision, exposed for the property tests: while
      [low_queued], at most [promote_after] consecutive [`High] results. *)
  val pick_source : streak:int -> low_queued:bool -> [ `High | `Low ]
end
