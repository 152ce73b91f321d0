(** The fleet load balancer: pluggable placement policies over N hosts.

    The balancer tracks per-host outstanding request counts and an
    up/drained flag per host; {!pick} never returns a drained host (the
    chaos-drill and rolling-upgrade invariant) and returns [None] only
    when every host is drained.  All tie-breaking randomness comes from
    one seeded {!Stats.Prng} stream, so placement is a pure function of
    (seed, policy, operation sequence). *)

type policy =
  | Round_robin
  | Least_outstanding  (** fewest in-flight requests; seeded tie-break *)
  | Weighted  (** smooth weighted round-robin (nginx style) *)
  | Consistent_hash
      (** 64-vnode hash ring keyed on the request's flow key: flows stick
          to hosts, and draining one host remaps only that host's keys *)

val policy_of_string : string -> (policy, string) result

val policy_name : policy -> string

val policy_names : string list

type t

(** [weights] (default all-1) only matters for [Weighted]. *)
val create : ?weights:int array -> policy:policy -> hosts:int -> seed:int -> unit -> t

(** Choose a host for a request with affinity key [key]; [None] iff all
    hosts are drained.  Does not bump the outstanding count — callers pair
    it with {!dispatch}. *)
val pick : t -> key:int -> int option

(** Account one request dispatched to / completed on a host. *)
val dispatch : t -> int -> unit

val complete : t -> int -> unit

(** Take a host out of / back into rotation. *)
val drain : t -> int -> unit

val admit : t -> int -> unit

val drained : t -> int -> bool

(** For the tests only. *)
module Private : sig
  val outstanding : t -> int -> int
end
