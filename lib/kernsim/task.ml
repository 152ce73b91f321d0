type ns = Time.ns

type hint = ..

type action = int

type ctx = {
  mutable now : ns;
  mutable self : int;
  mutable cpu : int;
  mutable inbox : hint list;
  mutable hint_out : hint option;
  mutable spawn_out : spec option;
}

and behaviour = ctx -> action

and spec = {
  name : string;
  group : string;
  nice : int;
  policy : int;
  behaviour : behaviour;
  affinity : int list option;
}

(* An action is [(arg lsl kind_bits) lor kind]: [asr] reads the argument
   back with its sign, so a zero or negative duration keeps its meaning. *)
let kind_bits = 3

let max_arg = max_int asr kind_bits

let min_arg = min_int asr kind_bits

type kind = K_compute | K_block | K_wake | K_sleep | K_yield | K_send_hint | K_spawn | K_exit

let out_of_range arg = invalid_arg (Printf.sprintf "Task: action argument %d does not fit" arg)

let pack kind arg =
  if arg > max_arg || arg < min_arg then out_of_range arg else (arg lsl kind_bits) lor kind

let compute d = pack 0 d

let block ch = pack 1 ch

let wake ch = pack 2 ch

let sleep d = pack 3 d

let yield = 4

let send_hint ctx h =
  ctx.hint_out <- Some h;
  5

let spawn ctx spec =
  ctx.spawn_out <- Some spec;
  6

let exit = 7

let kind a =
  match a land 7 with
  | 0 -> K_compute
  | 1 -> K_block
  | 2 -> K_wake
  | 3 -> K_sleep
  | 4 -> K_yield
  | 5 -> K_send_hint
  | 6 -> K_spawn
  | _ -> K_exit

let arg a = a asr kind_bits

let make_ctx () =
  { now = 0; self = 0; cpu = 0; inbox = []; hint_out = None; spawn_out = None }

type state = Runnable | Running | Blocked | Dead

type t = {
  pid : int;
  name : string;
  group : string;
  mutable nice : int;
  mutable policy : int;
  behaviour : behaviour;
  mutable state : state;
  mutable cpu : int;
  mutable affinity : int list option;
  mutable remaining : ns;
  mutable sum_exec : ns;
  mutable last_wake : ns;
  mutable wake_pending : bool;
  mutable migrations : int;
  mutable inbox : hint list;
  mutable pending_policy : int option;
  mutable spawned_at : ns;
  mutable exited_at : ns option;
}

let default_spec ~name behaviour =
  { name; group = name; nice = 0; policy = 0; behaviour; affinity = None }

let make (spec : spec) ~pid ~now =
  {
    pid;
    name = spec.name;
    group = spec.group;
    nice = spec.nice;
    policy = spec.policy;
    behaviour = spec.behaviour;
    state = Runnable;
    cpu = 0;
    affinity = spec.affinity;
    remaining = 0;
    sum_exec = 0;
    last_wake = now;
    wake_pending = false;
    migrations = 0;
    inbox = [];
    pending_policy = None;
    spawned_at = now;
    exited_at = None;
  }

let is_runnable t = match t.state with Runnable | Running -> true | Blocked | Dead -> false

let allowed_cpu t cpu =
  match t.affinity with None -> true | Some cpus -> List.mem cpu cpus

let pp_state fmt = function
  | Runnable -> Format.pp_print_string fmt "runnable"
  | Running -> Format.pp_print_string fmt "running"
  | Blocked -> Format.pp_print_string fmt "blocked"
  | Dead -> Format.pp_print_string fmt "dead"

module Private = struct
  let max_arg = max_arg

  let min_arg = min_arg
end
