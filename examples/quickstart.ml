(* Quickstart: write a scheduler against the EnokiScheduler trait, load it
   into a simulated kernel, and run tasks on it.

     dune exec examples/quickstart.exe

   This is the paper's §3.1 worked example: a round-robin scheduler with
   per-core first-come-first-serve queues.  It implements the full trait by
   delegating the boilerplate to the library FIFO scheduler and overriding
   the decision points, which is how downstream users are expected to start
   (§B.5 of the paper's artifact appendix recommends copying a scheduler
   skeleton and editing the policy). *)

module T = Kernsim.Task
module M = Kernsim.Machine

(* A tiny scheduler: per-cpu FCFS queues, shortest-queue placement, idle
   stealing.  The heavy lifting — Schedulable ownership, message parsing,
   run-queue mechanics — is the framework's job, not ours. *)
module My_sched : Enoki.Sched_trait.S = struct
  include Schedulers.Fifo_sched

  let name = "my-first-scheduler"
end

let () =
  (* 1. prepare the scheduler module for registration *)
  let enoki = Enoki.Enoki_c.create (module My_sched) in
  (* 2. boot a simulated 8-core machine with the module loaded above CFS *)
  let machine =
    M.create ~topology:Kernsim.Topology.one_socket
      ~classes:[ Enoki.Enoki_c.factory enoki; Kernsim.Cfs.factory () ]
      ()
  in
  (* 3. attach tasks to policy 0 (our scheduler) and let them run *)
  let hog name ms =
    let left = ref ms in
    M.spawn machine
      {
        (T.default_spec ~name (fun _ ->
             if !left = 0 then T.exit
             else begin
               decr left;
               T.compute (Kernsim.Time.ms 1)
             end))
        with
        T.policy = 0;
      }
  in
  let pids = List.init 12 (fun i -> hog (Printf.sprintf "task-%02d" i) (10 + (i * 3))) in
  M.run_for machine (Kernsim.Time.ms 200);
  (* 4. inspect what happened *)
  Printf.printf "scheduler: %s\n" (Enoki.Enoki_c.scheduler_name enoki);
  List.iter
    (fun pid ->
      let task = Option.get (M.find_task machine pid) in
      Printf.printf "  %-8s ran %6.1f ms on cpu %d, %s\n" task.T.name
        (Kernsim.Time.to_ms task.T.sum_exec)
        task.T.cpu
        (Format.asprintf "%a" T.pp_state task.T.state))
    pids;
  Printf.printf "framework: %d scheduler invocations, %d Schedulable violations\n"
    (Enoki.Enoki_c.calls enoki) (Enoki.Enoki_c.violations enoki);
  assert (Enoki.Enoki_c.violations enoki = 0);
  print_endline "quickstart OK"
