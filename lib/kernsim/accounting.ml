(* A group's resolved handle is its busy counter itself: callers on hot
   paths (the machine's per-segment accounting) resolve once and skip the
   string hash.  [reset] zeroes counters in place, so cached handles stay
   live across metric-window resets. *)
type cells = int ref

type t = {
  wakeup : Stats.Histogram.t;
  busy_cpu : int array;
  busy_group : (string, int ref) Hashtbl.t;
  mutable schedules : int;
  mutable migrations : int;
  mutable pick_violations : int;
  mutable context_switches : int;
}

let create ~nr_cpus =
  {
    wakeup = Stats.Histogram.create ();
    busy_cpu = Array.make nr_cpus 0;
    busy_group = Hashtbl.create 16;
    schedules = 0;
    migrations = 0;
    pick_violations = 0;
    context_switches = 0;
  }

(* A detached counter: the machine's group memo starts out pointing here
   so the hot path never matches an option. *)
let null_cells () = ref 0

let cells t ~group =
  match Hashtbl.find_opt t.busy_group group with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t.busy_group group r;
    r

let record_wakeup t lat = Stats.Histogram.record t.wakeup lat

let add_busy t c ~cpu ns =
  t.busy_cpu.(cpu) <- t.busy_cpu.(cpu) + ns;
  c := !c + ns

let wakeup_latency t = t.wakeup

let busy_of_cpu t cpu = t.busy_cpu.(cpu)

let busy_of_group t group =
  match Hashtbl.find_opt t.busy_group group with Some r -> !r | None -> 0

let total_busy t = Array.fold_left ( + ) 0 t.busy_cpu

let count_schedule t ~cpu:_ = t.schedules <- t.schedules + 1

let schedules t = t.schedules

let count_migration t = t.migrations <- t.migrations + 1

let migrations t = t.migrations

let count_pick_violation t = t.pick_violations <- t.pick_violations + 1

let pick_violations t = t.pick_violations

let count_context_switch t = t.context_switches <- t.context_switches + 1

let context_switches t = t.context_switches

let reset t =
  Stats.Histogram.clear t.wakeup;
  Array.fill t.busy_cpu 0 (Array.length t.busy_cpu) 0;
  (* zero in place, not [Hashtbl.reset]: cached {!cells} stay attached *)
  Hashtbl.iter (fun _ r -> r := 0) t.busy_group;
  t.schedules <- 0;
  t.migrations <- 0;
  t.pick_violations <- 0;
  t.context_switches <- 0
