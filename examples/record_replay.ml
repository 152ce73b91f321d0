(* Record and replay (§3.4): stream a binary record log of a run to disk,
   replay it against the identical scheduler code at "userspace" and
   validate the replies.  The simulator makes one module call at a time,
   so the log is one total order that agrees with every lock's recorded
   acquisition order: the replay feeds the calls back in log order, on one
   thread, and gives the same verdict every run.  A wrong-scheduler replay
   diverges, and bisection pinpoints the first divergent call; a recording
   with ring drops is refused instead of silently validating against
   holes.

     dune exec examples/record_replay.exe *)

module T = Kernsim.Task
module M = Kernsim.Machine

let mixed_workload machine =
  let ch = M.new_chan machine in
  for i = 0 to 5 do
    let beh =
      let steps = ref 200 in
      fun _ ->
        if !steps = 0 then T.Exit
        else begin
          decr steps;
          match !steps mod 4 with
          | 0 -> T.Compute (Kernsim.Time.us 300)
          | 1 -> T.Wake ch
          | 2 -> if i mod 2 = 0 then T.Block ch else T.Yield
          | _ -> T.Sleep (Kernsim.Time.us 100)
        end
    in
    ignore
      (M.spawn machine { (T.default_spec ~name:(Printf.sprintf "mix-%d" i) beh) with T.policy = 0 })
  done

let () =
  (* 1. record a run of the WFQ scheduler, streaming the binary log to a
     file as the ring drains (bounded memory, however long the run) *)
  let path = Filename.temp_file "wfq" ".rec" in
  let record = Enoki.Record.create_file ~path () in
  let enoki = Enoki.Enoki_c.create ~record (module Schedulers.Wfq) in
  let machine =
    M.create ~topology:Kernsim.Topology.one_socket
      ~classes:[ Enoki.Enoki_c.factory enoki; Kernsim.Cfs.factory () ]
      ()
  in
  mixed_workload machine;
  M.run_for machine (Kernsim.Time.ms 500);
  Enoki.Record.close record;
  let d = Enoki.Record.dropped record in
  Printf.printf "recorded %d events to %s (%s)\n" (Enoki.Record.length record) path
    (if d > 0 then Printf.sprintf "WARNING: %d EVENTS DROPPED" d else "0 dropped");

  (* 2. replay the log against the same scheduler code, at userspace *)
  let log = Enoki.Record.load_file ~path in
  let report = Enoki.Replay.run (module Schedulers.Wfq) ~log in
  Format.printf "%a@." Enoki.Replay.pp_report report;

  (* 3. replaying a *different* scheduler flags divergence, and bisection
     narrows the log to the first call whose reply went wrong *)
  let wrong = Enoki.Replay.run (module Schedulers.Fifo_sched) ~log in
  Printf.printf "replaying the wrong scheduler: %d reply mismatches flagged\n"
    (List.length wrong.Enoki.Replay.mismatches);
  (match Enoki.Replay.bisect (module Schedulers.Fifo_sched) ~log with
  | None -> assert false
  | Some dv ->
    Printf.printf "bisect: minimal failing prefix %d entries; first divergence at %d:\n"
      dv.Enoki.Replay.failing_prefix dv.Enoki.Replay.seq;
    Printf.printf "  %s\n" dv.Enoki.Replay.detail);
  Sys.remove path;

  (* 4. a recording that overran its ring has holes: replay refuses it
     loudly instead of validating against a corrupt history *)
  let tiny = Enoki.Record.create ~capacity:8 () in
  let enoki2 = Enoki.Enoki_c.create ~record:tiny (module Schedulers.Wfq) in
  let machine2 =
    M.create ~topology:Kernsim.Topology.one_socket
      ~classes:[ Enoki.Enoki_c.factory enoki2; Kernsim.Cfs.factory () ]
      ()
  in
  mixed_workload machine2;
  M.run_for machine2 (Kernsim.Time.ms 500);
  assert (Enoki.Record.dropped tiny > 0);
  let holey = Enoki.Record.contents tiny in
  (match Enoki.Replay.run (module Schedulers.Wfq) ~log:holey with
  | exception Enoki.Replay.Incomplete_log { dropped } ->
    Printf.printf "replay refused an incomplete log (%d events dropped), as it must\n" dropped
  | _ -> assert false);

  assert (report.Enoki.Replay.mismatches = []);
  assert (wrong.Enoki.Replay.mismatches <> []);
  print_endline "record/replay OK"
