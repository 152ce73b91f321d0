module T = Kernsim.Task
module M = Kernsim.Machine

let hog ~chunk ~work =
  let left = ref (work / chunk) in
  fun (_ : T.ctx) ->
    if !left <= 0 then T.exit
    else begin
      decr left;
      T.compute chunk
    end

let completion m pid =
  match M.find_task m pid with
  | Some { T.exited_at = Some t; spawned_at; _ } -> Kernsim.Time.to_sec (t - spawned_at)
  | Some _ | None -> Float.nan

let spawn_hogs (b : Setup.built) ~n ~work ~affinity ~nice =
  List.init n (fun i ->
      M.spawn b.machine
        {
          (T.default_spec ~name:(Printf.sprintf "hog-%d" i) (hog ~chunk:(Kernsim.Time.ms 1) ~work))
          with
          T.policy = b.policy;
          group = "hog";
          affinity;
          nice = nice i;
        })

let run_all (b : Setup.built) ~budget = M.run_for b.machine budget

let fair_share (b : Setup.built) ~colocated ~work =
  let affinity = if colocated then Some [ 0 ] else None in
  let pids = spawn_hogs b ~n:5 ~work ~affinity ~nice:(fun _ -> 0) in
  run_all b ~budget:(30 * work);
  List.map (completion b.machine) pids

let weighted (b : Setup.built) ~work =
  let pids =
    spawn_hogs b ~n:5 ~work ~affinity:(Some [ 0 ]) ~nice:(fun i -> if i = 4 then 19 else 0)
  in
  run_all b ~budget:(60 * work);
  match List.rev_map (completion b.machine) pids with
  | low :: rest -> (List.rev rest, low)
  | [] -> ([], Float.nan)

let placement (b : Setup.built) ~move ~work =
  let nr = Kernsim.Topology.nr_cpus (M.topology b.machine) in
  let pids = spawn_hogs b ~n:nr ~work ~affinity:None ~nice:(fun _ -> 0) in
  (match (move, pids) with
  | true, first :: _ ->
    (* force the first task onto its neighbour's core partway through *)
    M.at b.machine ~delay:(work / 3) (fun () ->
        M.set_affinity b.machine ~pid:first (Some [ 1 ]));
    M.at b.machine ~delay:(work / 2) (fun () -> M.set_affinity b.machine ~pid:first None)
  | _, _ -> ());
  run_all b ~budget:(10 * work);
  let times = List.map (completion b.machine) pids in
  (Stats.Summary.mean times, Stats.Summary.stdev times)
