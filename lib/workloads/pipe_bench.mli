(** The [perf bench sched pipe] microbenchmark (§5.2, Table 3).

    Two tasks bounce messages over a pipe: the sender wakes the receiver
    and sleeps until the reply.  Schedulers by default place the tasks on
    different cores; [same_core] pins both to cpu 0, the benchmark's
    one-core variant.  The reported metric is microseconds per wakeup. *)

type result = {
  us_per_wakeup : float;
  wakeups : int;
  elapsed : Kernsim.Time.ns;
  completed : bool;  (** both tasks exited within the time budget *)
}

val run : Setup.built -> ?same_core:bool -> ?messages:int -> unit -> result

(** The Arachne row of Tables 3 and 4: the ping-pong runs between
    user-level threads inside one kernel task, so each wakeup costs only a
    userspace context switch — no kernel scheduling at all.  The two-core
    variant additionally bounces a cache line between cores. *)
val run_userlevel : Setup.built -> ?same_core:bool -> ?messages:int -> unit -> result
