(** Messages across the Enoki-C / libEnoki boundary.

    Every call from the core scheduler code to a module is one
    per-function message (§3): plain data plus Schedulable capabilities —
    never kernel pointers.  Enoki-C calls the module directly and builds
    the message value only for the record tap, which serialises one per
    call ({!put_call}); replay decodes them ({!get_call}) and feeds the
    identical call stream through the processing function in libEnoki
    ({!Lib_enoki}) to the identical scheduler code at userspace. *)

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
  | R_pid_opt of int  (** a pid, or [-1] for none *)
  | R_sched_opt of Schedulable.t  (** {!Schedulable.none} for none *)

(** Wire form: length-prefixed varint fields, no escaping, so free-form
    payloads (errors, hints) round-trip byte-exactly no matter what they
    contain.  Opcodes follow constructor declaration order.
    Readers raise {!Wire.Truncated} on short input and [Failure] on
    unknown opcodes. *)
val put_call : Buffer.t -> call -> unit

val get_call : Wire.cursor -> call

val put_reply : Buffer.t -> reply -> unit

val get_reply : Wire.cursor -> reply

(** Replies are compared structurally during replay validation;
    Schedulables match on (pid, cpu). *)
val reply_matches : reply -> reply -> bool

val call_name : call -> string

(** One-line human-readable rendering (replay context, mismatch text);
    free-form payloads print as OCaml string literals.  Not a codec: the
    record log uses {!put_call}. *)
val string_of_call : call -> string

val string_of_reply : reply -> string
