(* Live upgrade (§3.2): replace a running scheduler with a new version of
   itself without stopping the machine or losing any task.

     dune exec examples/live_upgrade.exe

   WFQ v2 here is WFQ recompiled with a provocative name; its
   [reregister_init] claims the old version's run-queues through the
   transfer value, so every queued task keeps its vruntime.  The same
   mechanism rejects an upgrade to a scheduler with an incompatible state
   layout, which this example also demonstrates. *)

module T = Kernsim.Task
module M = Kernsim.Machine

module Wfq_v2 : Enoki.Sched_trait.S = struct
  include Schedulers.Wfq

  let name = "wfq-v2"
end

let () =
  let enoki = Enoki.Enoki_c.create (module Schedulers.Wfq) in
  let machine =
    M.create ~topology:Kernsim.Topology.one_socket
      ~classes:[ Enoki.Enoki_c.factory enoki; Kernsim.Cfs.factory () ]
      ()
  in
  (* a steady mixed load so the upgrade happens under fire *)
  let ch = M.new_chan machine in
  for i = 0 to 9 do
    let beh =
      let st = ref `Work in
      fun _ ->
        match !st with
        | `Work ->
          st := `Nap;
          T.compute (Kernsim.Time.us 500)
        | `Nap ->
          st := `Work;
          if i mod 2 = 0 then T.sleep (Kernsim.Time.us 200) else T.wake ch
    in
    ignore
      (M.spawn machine { (T.default_spec ~name:(Printf.sprintf "load-%d" i) beh) with T.policy = 0 })
  done;
  Printf.printf "running under: %s\n" (Enoki.Enoki_c.scheduler_name enoki);
  (* upgrade to v2 at t = 50ms *)
  M.at machine ~delay:(Kernsim.Time.ms 50) (fun () ->
      match Enoki.Enoki_c.upgrade enoki (module Wfq_v2) with
      | Ok stats ->
        Printf.printf "t=50ms: upgraded to %s -- pause %s, %d tasks carried, state %s\n"
          (Enoki.Enoki_c.scheduler_name enoki)
          (Kernsim.Time.to_string stats.Enoki.Upgrade.pause)
          stats.tasks_carried
          (if stats.transferred then "transferred" else "fresh")
      | Error e -> raise e);
  (* and demonstrate the rejection path at t = 100ms *)
  M.at machine ~delay:(Kernsim.Time.ms 100) (fun () ->
      match Enoki.Enoki_c.upgrade enoki (module Schedulers.Shinjuku) with
      | Ok _ -> failwith "shinjuku must not accept wfq state"
      | Error (Enoki.Upgrade.Incompatible reason) ->
        Printf.printf "t=100ms: upgrade to shinjuku rejected (%s); still running %s\n" reason
          (Enoki.Enoki_c.scheduler_name enoki)
      | Error e -> raise e);
  M.run_for machine (Kernsim.Time.ms 200);
  let alive =
    List.length (List.filter (fun (t : T.t) -> t.T.state <> T.Dead) (M.tasks machine))
  in
  Printf.printf "after 200ms: %d tasks still being scheduled, %d violations\n" alive
    (Enoki.Enoki_c.violations enoki);
  assert (Enoki.Enoki_c.violations enoki = 0);
  print_endline "live upgrade OK"
