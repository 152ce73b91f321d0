(** Machine topology: cores grouped into last-level-cache domains grouped
    into NUMA nodes.

    Two presets mirror the paper's testbeds (§5.1): an 8-core single-socket
    desktop and an 80-core two-socket server. *)

type t

(** [create ~cores ~cores_per_llc ~cores_per_node]. [cores] must be a
    positive multiple of both grouping factors. *)
val create : cores:int -> cores_per_llc:int -> cores_per_node:int -> t

(** 8 cores, one LLC, one node — the Intel i7-9700 box. *)
val one_socket : t

(** 80 cores, 2 nodes of 40, LLC per node — the two-socket Xeon Gold box. *)
val two_socket : t

val nr_cpus : t -> int

(** All cpus in the same NUMA node as [cpu], including [cpu]. *)
val node_cpus : t -> int -> int list

(** All cpus sharing [cpu]'s last-level cache, including [cpu]. *)
val llc_cpus : t -> int -> int list

val all_cpus : t -> int list
