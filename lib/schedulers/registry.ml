type kind =
  | Builtin_cfs
  | Enoki of (module Enoki.Sched_trait.S)
  | Ghost of Ghost_sim.policy

type entry = { name : string; kind : kind; arbiter : bool }

let enoki ?(arbiter = false) name m = { name; kind = Enoki m; arbiter }

(* The one list every consumer derives from: the CLI's --sched vocabulary,
   bench's chaos/perf/speed matrices and the check table in
   test/test_checks.ml.  A new scheduler appears everywhere by registering
   here once. *)
let all =
  [
    { name = "cfs"; kind = Builtin_cfs; arbiter = false };
    enoki "fifo" (module Fifo_sched : Enoki.Sched_trait.S);
    enoki "wfq" (module Wfq);
    enoki "shinjuku" (module Shinjuku);
    enoki "locality" (module Locality);
    enoki ~arbiter:true "arachne" (module Arachne);
    enoki "edf" (module Edf);
    enoki "nest" (module Nest);
    enoki "rt-fifo" (module Rt_fifo);
    enoki "scx-simple" (module Scx_simple);
    enoki "scx-rr" (module Scx_rr);
    enoki "scx-prio-dq" (module Scx_prio_dq);
    { name = "ghost-sol"; kind = Ghost Ghost_sim.Sol; arbiter = false };
    { name = "ghost-fifo"; kind = Ghost Ghost_sim.Fifo_per_cpu; arbiter = false };
    { name = "ghost-shinjuku"; kind = Ghost Ghost_sim.Gshinjuku; arbiter = false };
  ]

let names = List.map (fun e -> e.name) all

let find name = List.find_opt (fun e -> e.name = name) all

let enoki_module e = match e.kind with Enoki m -> Some m | Builtin_cfs | Ghost _ -> None

let enoki_names =
  List.filter_map (fun e -> if enoki_module e <> None then Some e.name else None) all

let dsq_names = [ "scx-simple"; "scx-rr"; "scx-prio-dq" ]
