(* Custom scheduler hints (§3.3): an application tells the locality-aware
   scheduler which of its tasks communicate, and the scheduler co-locates
   them — without the application naming any core, unlike cpusets.

     dune exec examples/locality_hints.exe

   Three producer/consumer pairs bounce messages.  With hints, each pair
   shares a core and the handoff is a cheap local switch; without, the
   pairs land wherever random placement puts them and every message pays
   cross-core wakeup costs.  The example prints both configurations. *)

module T = Kernsim.Task
module M = Kernsim.Machine

let run ~hints =
  Schedulers.Hints.register_codecs ();
  let enoki = Enoki.Enoki_c.create (module Schedulers.Locality) in
  let machine =
    M.create ~topology:Kernsim.Topology.one_socket
      ~classes:[ Enoki.Enoki_c.factory enoki; Kernsim.Cfs.factory () ]
      ()
  in
  let messages = 5_000 in
  let done_count = ref 0 in
  for pair = 0 to 2 do
    let there = M.new_chan machine and back = M.new_chan machine in
    let producer =
      let n = ref 0 and st = ref (if hints then `Hint else `Work) in
      fun (ctx : T.ctx) ->
        match !st with
        | `Hint ->
          st := `Work;
          T.send_hint ctx (Schedulers.Hints.Locality { pid = ctx.T.self; group = pair })
        | `Work ->
          (* produce the message payload *)
          st := `Send;
          T.compute (Kernsim.Time.us 1)
        | `Send ->
          st := `Wait;
          T.wake there
        | `Wait ->
          st := `Step;
          T.block back
        | `Step ->
          incr n;
          if !n >= messages then begin
            incr done_count;
            T.exit
          end
          else begin
            st := `Send;
            T.compute (Kernsim.Time.us 1)
          end
    in
    let consumer =
      let n = ref 0 and st = ref (if hints then `Hint else `Recv) in
      fun (ctx : T.ctx) ->
        match !st with
        | `Hint ->
          st := `Recv;
          T.send_hint ctx (Schedulers.Hints.Locality { pid = ctx.T.self; group = pair })
        | `Recv ->
          if !n >= messages then begin
            incr done_count;
            T.exit
          end
          else begin
            st := `Consume;
            T.block there
          end
        | `Consume ->
          (* handle the message before replying *)
          st := `Reply;
          T.compute (Kernsim.Time.us 1)
        | `Reply ->
          incr n;
          st := `Recv;
          T.wake back
    in
    ignore
      (M.spawn machine
         { (T.default_spec ~name:(Printf.sprintf "prod-%d" pair) producer) with T.policy = 0 });
    ignore
      (M.spawn machine
         { (T.default_spec ~name:(Printf.sprintf "cons-%d" pair) consumer) with T.policy = 0 })
  done;
  let started = M.now machine in
  M.run_for machine (Kernsim.Time.sec 10);
  let finish =
    List.fold_left
      (fun acc (t : T.t) -> match t.T.exited_at with Some e -> max acc e | None -> acc)
      started (M.tasks machine)
  in
  let per_msg = Kernsim.Time.to_us (finish - started) /. float_of_int (2 * messages) in
  Printf.printf "%-22s %d/6 tasks finished, %.2f us per message\n"
    (if hints then "with locality hints:" else "random placement:")
    !done_count per_msg;
  per_msg

let () =
  let without = run ~hints:false in
  let with_hints = run ~hints:true in
  Printf.printf "hints made messaging %.1fx cheaper\n" (without /. with_hints);
  assert (with_hints < without);
  print_endline "locality hints OK"
