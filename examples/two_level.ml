(* Two-level scheduling (§4.2.4): the Enoki re-implementation of the
   Arachne core arbiter.  An application runtime requests cores over the
   user-to-kernel hint queue; the arbiter grants cores to scheduler
   activations and reclaims them over the kernel-to-user reverse queue when
   the request shrinks.

     dune exec examples/two_level.exe *)

module T = Kernsim.Task
module M = Kernsim.Machine

let n_activations = 5

let () =
  Schedulers.Hints.register_codecs ();
  let enoki = Enoki.Enoki_c.create (module Schedulers.Arachne) in
  let machine =
    M.create ~topology:Kernsim.Topology.one_socket
      ~classes:[ Enoki.Enoki_c.factory enoki; Kernsim.Cfs.factory () ]
      ()
  in
  (* activations spin on their granted core; a reclaim parks them *)
  let reclaim = Array.make n_activations false in
  let park = Array.init n_activations (fun _ -> M.new_chan machine) in
  let work_done = Array.make n_activations 0 in
  for slot = 0 to n_activations - 1 do
    let beh (_ : T.ctx) =
      if reclaim.(slot) then begin
        reclaim.(slot) <- false;
        T.block park.(slot)
      end
      else begin
        work_done.(slot) <- work_done.(slot) + 1;
        T.compute (Kernsim.Time.us 100)
      end
    in
    ignore
      (M.spawn machine
         { (T.default_spec ~name:(Printf.sprintf "activation-%d" slot) beh) with T.policy = 0 })
  done;
  (* the runtime walks its core demand up and down: 1 -> 4 -> 2 cores *)
  let timeline = ref [] in
  let runtime =
    let phases = ref [ (1, Kernsim.Time.ms 20); (4, Kernsim.Time.ms 40); (2, Kernsim.Time.ms 40) ] in
    fun (ctx : T.ctx) ->
      List.iter
        (fun h ->
          match h with
          | Schedulers.Hints.Core_grant { slot; cpu } ->
            timeline := Printf.sprintf "t=%s: slot %d granted cpu %d"
                          (Kernsim.Time.to_string ctx.T.now) slot cpu :: !timeline;
            reclaim.(slot) <- false
          | Schedulers.Hints.Core_reclaim { slot } ->
            timeline := Printf.sprintf "t=%s: slot %d reclaimed"
                          (Kernsim.Time.to_string ctx.T.now) slot :: !timeline;
            reclaim.(slot) <- true
          | _ -> ())
        ctx.T.inbox;
      match !phases with
      | [] -> T.exit
      | (want, hold) :: rest ->
        phases := (-want, hold) :: rest;
        if want > 0 then T.send_hint ctx (Schedulers.Hints.Core_request { pid = ctx.T.self; cores = want })
        else begin
          phases := rest;
          T.sleep hold
        end
  in
  ignore
    (M.spawn machine
       { (T.default_spec ~name:"runtime" runtime) with T.policy = 1; affinity = Some [ 0 ] });
  M.run_for machine (Kernsim.Time.ms 150);
  List.iter print_endline (List.rev !timeline);
  Array.iteri (fun slot n -> Printf.printf "activation %d ran %d quanta\n" slot n) work_done;
  let grants = List.length (List.filter (fun s -> String.length s > 0) (List.rev !timeline)) in
  assert (grants >= 4);
  print_endline "two-level scheduling OK"
