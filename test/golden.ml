(* Digests of deterministic artefacts, shared by the test executables that
   pin a decision stream. *)

(* md5 of the ftrace export of everything [tracer] holds.  A trace that
   dropped events pins less than the run did, so a drop fails instead of
   digesting. *)
let digest ~label tracer =
  if Trace.Tracer.dropped tracer > 0 then
    Alcotest.failf "%s: the tracer dropped %d events; raise its capacity" label
      (Trace.Tracer.dropped tracer);
  let path = Filename.temp_file "golden" ".txt" in
  Trace.Export.save ~path Trace.Export.Ftrace (Trace.Tracer.events tracer);
  let digest = Digest.to_hex (Digest.file path) in
  Sys.remove path;
  digest

(* [run] on a fresh 8-cpu machine of [kind]; [capacity] sizes each cpu's ring *)
let ftrace_digest ?capacity kind run =
  let topology = Kernsim.Topology.one_socket in
  let tracer = Trace.Tracer.create ?capacity ~nr_cpus:(Kernsim.Topology.nr_cpus topology) () in
  run (Workloads.Setup.build ~tracer ~topology kind);
  digest ~label:(Workloads.Setup.label kind) tracer
