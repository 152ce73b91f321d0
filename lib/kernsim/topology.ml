type t = {
  cores : int;
  (* The cpu-group lists are queried on every balance and wakeup placement:
     precompute one shared immutable list per group and index it, instead
     of allocating a fresh list per call. *)
  node_lists : int list array; (* cpu -> cpus of its node *)
  llc_lists : int list array; (* cpu -> cpus of its llc *)
  all : int list;
}

let group_lists size cores =
  let n_groups = (cores + size - 1) / size in
  let groups =
    Array.init n_groups (fun g ->
        let base = g * size in
        List.init (min size (cores - base)) (fun i -> base + i))
  in
  Array.init cores (fun cpu -> groups.(cpu / size))

let create ~cores ~cores_per_llc ~cores_per_node =
  if cores <= 0 || cores_per_llc <= 0 || cores_per_node <= 0 then
    invalid_arg "Topology.create: core counts must be positive";
  if cores mod cores_per_llc <> 0 || cores mod cores_per_node <> 0 then
    invalid_arg "Topology.create: cores must divide evenly";
  {
    cores;
    node_lists = group_lists cores_per_node cores;
    llc_lists = group_lists cores_per_llc cores;
    all = List.init cores Fun.id;
  }

let one_socket = create ~cores:8 ~cores_per_llc:8 ~cores_per_node:8

let two_socket = create ~cores:80 ~cores_per_llc:40 ~cores_per_node:40

let nr_cpus t = t.cores

let node_cpus t cpu = t.node_lists.(cpu)

let llc_cpus t cpu = t.llc_lists.(cpu)

let all_cpus t = t.all
