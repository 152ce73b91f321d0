type ns = Kernsim.Time.ns

type call =
  | Get_policy
  | Pick_next_task of { cpu : int; curr : Schedulable.t; curr_runtime : ns }
  | Pnt_err of { cpu : int; pid : int; err : string; sched : Schedulable.t }
  | Task_dead of { pid : int }
  | Task_blocked of { pid : int; runtime : ns; cpu : int }
  | Task_wakeup of { pid : int; runtime : ns; waker_cpu : int; sched : Schedulable.t }
  | Task_new of { pid : int; runtime : ns; prio : int; sched : Schedulable.t }
  | Task_preempt of { pid : int; runtime : ns; cpu : int; sched : Schedulable.t }
  | Task_yield of { pid : int; runtime : ns; cpu : int; sched : Schedulable.t }
  | Task_departed of { pid : int; cpu : int }
  | Task_affinity_changed of { pid : int; allowed : int list }
  | Task_prio_changed of { pid : int; prio : int }
  | Task_tick of { cpu : int; queued : bool }
  | Select_task_rq of { pid : int; waker_cpu : int; allowed : int list }
  | Migrate_task_rq of { pid : int; from_cpu : int; sched : Schedulable.t }
  | Balance of { cpu : int }
  | Balance_err of { cpu : int; pid : int; sched : Schedulable.t }
  | Parse_hint of { pid : int; hint : Kernsim.Task.hint }

type reply =
  | R_unit
  | R_int of int
  | R_pid_opt of int (* a pid, or -1 *)
  | R_sched_opt of Schedulable.t (* [Schedulable.none] when no token *)

(* ---- human-readable rendering (replay context, mismatch text) ----------

   sched tokens print as pid.cpu.gen triples; "-" is [Schedulable.none] *)
let enc_sched s =
  Printf.sprintf "%d.%d.%d" (Schedulable.pid s) (Schedulable.cpu s) (Schedulable.generation s)

let enc_sched_opt s = if Schedulable.is_none s then "-" else enc_sched s

let enc_ints l = match l with [] -> "-" | l -> String.concat "," (List.map string_of_int l)

let call_name = function
  | Get_policy -> "get_policy"
  | Pick_next_task _ -> "pick_next_task"
  | Pnt_err _ -> "pnt_err"
  | Task_dead _ -> "task_dead"
  | Task_blocked _ -> "task_blocked"
  | Task_wakeup _ -> "task_wakeup"
  | Task_new _ -> "task_new"
  | Task_preempt _ -> "task_preempt"
  | Task_yield _ -> "task_yield"
  | Task_departed _ -> "task_departed"
  | Task_affinity_changed _ -> "task_affinity_changed"
  | Task_prio_changed _ -> "task_prio_changed"
  | Task_tick _ -> "task_tick"
  | Select_task_rq _ -> "select_task_rq"
  | Migrate_task_rq _ -> "migrate_task_rq"
  | Balance _ -> "balance"
  | Balance_err _ -> "balance_err"
  | Parse_hint _ -> "parse_hint"

(* free-form payloads (errors, hints) print as OCaml string literals *)
let string_of_call c =
  match c with
  | Get_policy -> "get_policy"
  | Pick_next_task { cpu; curr; curr_runtime } ->
    Printf.sprintf "pick_next_task %d %s %d" cpu (enc_sched_opt curr) curr_runtime
  | Pnt_err { cpu; pid; err; sched } ->
    Printf.sprintf "pnt_err %d %d %S %s" cpu pid err (enc_sched_opt sched)
  | Task_dead { pid } -> Printf.sprintf "task_dead %d" pid
  | Task_blocked { pid; runtime; cpu } -> Printf.sprintf "task_blocked %d %d %d" pid runtime cpu
  | Task_wakeup { pid; runtime; waker_cpu; sched } ->
    Printf.sprintf "task_wakeup %d %d %d %s" pid runtime waker_cpu (enc_sched sched)
  | Task_new { pid; runtime; prio; sched } ->
    Printf.sprintf "task_new %d %d %d %s" pid runtime prio (enc_sched sched)
  | Task_preempt { pid; runtime; cpu; sched } ->
    Printf.sprintf "task_preempt %d %d %d %s" pid runtime cpu (enc_sched sched)
  | Task_yield { pid; runtime; cpu; sched } ->
    Printf.sprintf "task_yield %d %d %d %s" pid runtime cpu (enc_sched sched)
  | Task_departed { pid; cpu } -> Printf.sprintf "task_departed %d %d" pid cpu
  | Task_affinity_changed { pid; allowed } ->
    Printf.sprintf "task_affinity_changed %d %s" pid (enc_ints allowed)
  | Task_prio_changed { pid; prio } -> Printf.sprintf "task_prio_changed %d %d" pid prio
  | Task_tick { cpu; queued } -> Printf.sprintf "task_tick %d %b" cpu queued
  | Select_task_rq { pid; waker_cpu; allowed } ->
    Printf.sprintf "select_task_rq %d %d %s" pid waker_cpu (enc_ints allowed)
  | Migrate_task_rq { pid; from_cpu; sched } ->
    Printf.sprintf "migrate_task_rq %d %d %s" pid from_cpu (enc_sched sched)
  | Balance { cpu } -> Printf.sprintf "balance %d" cpu
  | Balance_err { cpu; pid; sched } ->
    Printf.sprintf "balance_err %d %d %s" cpu pid (enc_sched_opt sched)
  | Parse_hint { pid; hint } ->
    let name, payload = Hint_codec.encode_parts hint in
    Printf.sprintf "parse_hint %d %s:%S" pid name payload

let string_of_reply = function
  | R_unit -> "unit"
  | R_int i -> Printf.sprintf "int %d" i
  | R_pid_opt p when p < 0 -> "pid -"
  | R_pid_opt p -> Printf.sprintf "pid %d" p
  | R_sched_opt s -> Printf.sprintf "sched %s" (enc_sched_opt s)

(* ---- wire form -----------------------------------------------------------

   Length-prefixed (no escaping, no delimiters), so payloads containing
   newlines or " => " can never corrupt the log.  Opcodes are the
   constructor declaration order; the format version lives in the record
   log magic, not here. *)

let put_sched buf s =
  Wire.put_uint buf (Schedulable.pid s);
  Wire.put_uint buf (Schedulable.cpu s);
  Wire.put_uint buf (Schedulable.generation s)

(* [none] travels as byte 0, a token as byte 1 and its fields *)
let put_sched_opt buf s =
  if Schedulable.is_none s then Wire.put_byte buf 0
  else begin
    Wire.put_byte buf 1;
    put_sched buf s
  end

let get_sched cur =
  let pid = Wire.get_uint cur in
  let cpu = Wire.get_uint cur in
  let gen = Wire.get_uint cur in
  Schedulable.Private.create ~pid ~cpu ~gen

let get_sched_opt cur = match Wire.get_byte cur with 0 -> Schedulable.none | _ -> get_sched cur

let put_ints buf l =
  Wire.put_uint buf (List.length l);
  List.iter (Wire.put_uint buf) l

let get_ints cur =
  let n = Wire.get_uint cur in
  List.init n (fun _ -> Wire.get_uint cur)

let put_call buf c =
  match c with
  | Get_policy -> Wire.put_byte buf 0
  | Pick_next_task { cpu; curr; curr_runtime } ->
    Wire.put_byte buf 1;
    Wire.put_uint buf cpu;
    put_sched_opt buf curr;
    Wire.put_uint buf curr_runtime
  | Pnt_err { cpu; pid; err; sched } ->
    Wire.put_byte buf 2;
    Wire.put_uint buf cpu;
    Wire.put_uint buf pid;
    Wire.put_str buf err;
    put_sched_opt buf sched
  | Task_dead { pid } ->
    Wire.put_byte buf 3;
    Wire.put_uint buf pid
  | Task_blocked { pid; runtime; cpu } ->
    Wire.put_byte buf 4;
    Wire.put_uint buf pid;
    Wire.put_uint buf runtime;
    Wire.put_uint buf cpu
  | Task_wakeup { pid; runtime; waker_cpu; sched } ->
    Wire.put_byte buf 5;
    Wire.put_uint buf pid;
    Wire.put_uint buf runtime;
    Wire.put_uint buf waker_cpu;
    put_sched buf sched
  | Task_new { pid; runtime; prio; sched } ->
    Wire.put_byte buf 6;
    Wire.put_uint buf pid;
    Wire.put_uint buf runtime;
    Wire.put_int buf prio;
    put_sched buf sched
  | Task_preempt { pid; runtime; cpu; sched } ->
    Wire.put_byte buf 7;
    Wire.put_uint buf pid;
    Wire.put_uint buf runtime;
    Wire.put_uint buf cpu;
    put_sched buf sched
  | Task_yield { pid; runtime; cpu; sched } ->
    Wire.put_byte buf 8;
    Wire.put_uint buf pid;
    Wire.put_uint buf runtime;
    Wire.put_uint buf cpu;
    put_sched buf sched
  | Task_departed { pid; cpu } ->
    Wire.put_byte buf 9;
    Wire.put_uint buf pid;
    Wire.put_uint buf cpu
  | Task_affinity_changed { pid; allowed } ->
    Wire.put_byte buf 10;
    Wire.put_uint buf pid;
    put_ints buf allowed
  | Task_prio_changed { pid; prio } ->
    Wire.put_byte buf 11;
    Wire.put_uint buf pid;
    Wire.put_int buf prio
  | Task_tick { cpu; queued } ->
    Wire.put_byte buf 12;
    Wire.put_uint buf cpu;
    Wire.put_bool buf queued
  | Select_task_rq { pid; waker_cpu; allowed } ->
    Wire.put_byte buf 13;
    Wire.put_uint buf pid;
    Wire.put_uint buf waker_cpu;
    put_ints buf allowed
  | Migrate_task_rq { pid; from_cpu; sched } ->
    Wire.put_byte buf 14;
    Wire.put_uint buf pid;
    Wire.put_uint buf from_cpu;
    put_sched buf sched
  | Balance { cpu } ->
    Wire.put_byte buf 15;
    Wire.put_uint buf cpu
  | Balance_err { cpu; pid; sched } ->
    Wire.put_byte buf 16;
    Wire.put_uint buf cpu;
    Wire.put_uint buf pid;
    put_sched_opt buf sched
  | Parse_hint { pid; hint } ->
    Wire.put_byte buf 17;
    Wire.put_uint buf pid;
    let name, payload = Hint_codec.encode_parts hint in
    Wire.put_str buf name;
    Wire.put_str buf payload

let get_call cur =
  match Wire.get_byte cur with
  | 0 -> Get_policy
  | 1 ->
    let cpu = Wire.get_uint cur in
    let curr = get_sched_opt cur in
    let curr_runtime = Wire.get_uint cur in
    Pick_next_task { cpu; curr; curr_runtime }
  | 2 ->
    let cpu = Wire.get_uint cur in
    let pid = Wire.get_uint cur in
    let err = Wire.get_str cur in
    let sched = get_sched_opt cur in
    Pnt_err { cpu; pid; err; sched }
  | 3 -> Task_dead { pid = Wire.get_uint cur }
  | 4 ->
    let pid = Wire.get_uint cur in
    let runtime = Wire.get_uint cur in
    let cpu = Wire.get_uint cur in
    Task_blocked { pid; runtime; cpu }
  | 5 ->
    let pid = Wire.get_uint cur in
    let runtime = Wire.get_uint cur in
    let waker_cpu = Wire.get_uint cur in
    let sched = get_sched cur in
    Task_wakeup { pid; runtime; waker_cpu; sched }
  | 6 ->
    let pid = Wire.get_uint cur in
    let runtime = Wire.get_uint cur in
    let prio = Wire.get_int cur in
    let sched = get_sched cur in
    Task_new { pid; runtime; prio; sched }
  | 7 ->
    let pid = Wire.get_uint cur in
    let runtime = Wire.get_uint cur in
    let cpu = Wire.get_uint cur in
    let sched = get_sched cur in
    Task_preempt { pid; runtime; cpu; sched }
  | 8 ->
    let pid = Wire.get_uint cur in
    let runtime = Wire.get_uint cur in
    let cpu = Wire.get_uint cur in
    let sched = get_sched cur in
    Task_yield { pid; runtime; cpu; sched }
  | 9 ->
    let pid = Wire.get_uint cur in
    let cpu = Wire.get_uint cur in
    Task_departed { pid; cpu }
  | 10 ->
    let pid = Wire.get_uint cur in
    let allowed = get_ints cur in
    Task_affinity_changed { pid; allowed }
  | 11 ->
    let pid = Wire.get_uint cur in
    let prio = Wire.get_int cur in
    Task_prio_changed { pid; prio }
  | 12 ->
    let cpu = Wire.get_uint cur in
    let queued = Wire.get_bool cur in
    Task_tick { cpu; queued }
  | 13 ->
    let pid = Wire.get_uint cur in
    let waker_cpu = Wire.get_uint cur in
    let allowed = get_ints cur in
    Select_task_rq { pid; waker_cpu; allowed }
  | 14 ->
    let pid = Wire.get_uint cur in
    let from_cpu = Wire.get_uint cur in
    let sched = get_sched cur in
    Migrate_task_rq { pid; from_cpu; sched }
  | 15 -> Balance { cpu = Wire.get_uint cur }
  | 16 ->
    let cpu = Wire.get_uint cur in
    let pid = Wire.get_uint cur in
    let sched = get_sched_opt cur in
    Balance_err { cpu; pid; sched }
  | 17 ->
    let pid = Wire.get_uint cur in
    let name = Wire.get_str cur in
    let payload = Wire.get_str cur in
    Parse_hint { pid; hint = Hint_codec.decode_parts ~name ~payload }
  | op -> failwith (Printf.sprintf "Message: unknown call opcode %d" op)

let put_reply buf = function
  | R_unit -> Wire.put_byte buf 0
  | R_int i ->
    Wire.put_byte buf 1;
    Wire.put_int buf i
  | R_pid_opt p when p < 0 ->
    Wire.put_byte buf 2;
    Wire.put_byte buf 0
  | R_pid_opt p ->
    Wire.put_byte buf 2;
    Wire.put_byte buf 1;
    Wire.put_uint buf p
  | R_sched_opt s ->
    Wire.put_byte buf 3;
    put_sched_opt buf s

let get_reply cur =
  match Wire.get_byte cur with
  | 0 -> R_unit
  | 1 -> R_int (Wire.get_int cur)
  | 2 -> (
    match Wire.get_byte cur with
    | 0 -> R_pid_opt (-1)
    | _ ->
      let p = Wire.get_uint cur in
      if p < 0 then failwith "Message: pid reply out of range";
      R_pid_opt p)
  | 3 -> R_sched_opt (get_sched_opt cur)
  | tag -> failwith (Printf.sprintf "Message: unknown reply tag %d" tag)

let reply_matches a b =
  match (a, b) with
  | R_unit, R_unit -> true
  | R_int x, R_int y -> x = y
  | R_pid_opt x, R_pid_opt y -> x = y || (x < 0 && y < 0)
  | R_sched_opt x, R_sched_opt y ->
    (* pid and cpu (an absent token's are -1); the generation may differ *)
    Schedulable.pid x = Schedulable.pid y && Schedulable.cpu x = Schedulable.cpu y
  | _ -> false
