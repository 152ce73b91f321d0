(* The repo benchmark: end-to-end and per-layer cost of the simulator on
   four workloads.  Run from the repository root:

     dune exec benchmark/main.exe -- --seed 1

   See benchmark/README.md for the metrics, the workloads and the
   comparison protocol. *)

open Benchlib

let usage =
  {|usage: main.exe [options]
  --workload NAME    run only NAME (repeatable); default: all four
  --seed N           workload seed (default 1)
  --seconds S        end-to-end measuring time per workload (default 10)
  --trace 0|1        0: end-to-end pass only; 1: traced pass only; default both
  --sets N           run N sets back to back and check that they agree
  --quick            tiny sizes, for smoke tests only
  --out PATH         results file (default _build/benchmark/results.json)
  --compare A B      diff two results files by bound, one row per workload
  --write-expected   store this seed's reference digests in benchmark/expected
workloads: |}
  ^ String.concat ", " (List.map Workload.name Workload.all)

type opts = {
  mutable workloads : Workload.t list;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : int option;
  mutable sets : int;
  mutable quick : bool;
  mutable out : string;
  mutable compare : (string * string) option;
  mutable child : Workload.t option;
  mutable write_expected : bool;
}

let die msg =
  prerr_endline ("benchmark: " ^ msg);
  prerr_endline usage;
  exit 2

let parse argv =
  let o =
    {
      workloads = [];
      seed = 1;
      seconds = 10.;
      trace = None;
      sets = 1;
      quick = false;
      out = "_build/benchmark/results.json";
      compare = None;
      child = None;
      write_expected = false;
    }
  in
  let workload s =
    match Workload.of_name s with Some w -> w | None -> die ("unknown workload " ^ s)
  in
  let int s = match int_of_string_opt s with Some n -> n | None -> die ("not a number: " ^ s) in
  let rec go = function
    | [] -> ()
    | "--workload" :: s :: rest ->
      o.workloads <- o.workloads @ [ workload s ];
      go rest
    | "--seed" :: s :: rest ->
      o.seed <- int s;
      go rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
      | Some f when f > 0. -> o.seconds <- f
      | _ -> die ("bad --seconds " ^ s));
      go rest
    | "--trace" :: s :: rest ->
      (match s with
      | "0" -> o.trace <- Some 0
      | "1" -> o.trace <- Some 1
      | _ -> die ("bad --trace " ^ s));
      go rest
    | "--sets" :: s :: rest ->
      o.sets <- max 1 (int s);
      go rest
    | "--quick" :: rest ->
      o.quick <- true;
      go rest
    | "--out" :: s :: rest ->
      o.out <- s;
      go rest
    | "--compare" :: a :: b :: rest ->
      o.compare <- Some (a, b);
      go rest
    | "--child" :: s :: rest ->
      o.child <- Some (workload s);
      go rest
    | "--write-expected" :: rest ->
      o.write_expected <- true;
      go rest
    | a :: _ -> die ("bad argument " ^ a)
  in
  go (List.tl (Array.to_list argv));
  if o.workloads = [] then o.workloads <- Workload.all;
  o

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let load path =
  match Result.bind (Metrics.Json.parse_file ~path) Results.of_json with
  | Ok (s :: _) -> s
  | Ok [] -> die (path ^ ": no result sets")
  | Error e -> die (path ^ ": " ^ e)

let run_set o =
  let repeats =
    if o.trace = Some 1 then List.map (fun w -> (w, [])) o.workloads
    else
      Measure.end_to_end ~exe:Sys.executable_name ~quick:o.quick ~seed:o.seed ~seconds:o.seconds
        ~on_repeat:(fun w r ->
          match r with
          | Ok (r : Measure.repeat) ->
            Printf.eprintf "%s: %.1f ns/event over %d events\n%!" (Workload.name w)
              (float_of_int r.wall_ns /. float_of_int (max 1 r.events))
              r.events
          | Error e -> Printf.eprintf "%s: repeat failed: %s\n%!" (Workload.name w) e)
        o.workloads
  in
  let results =
    List.map
      (fun (w, repeats) ->
        let traced =
          if o.trace = Some 0 then None
          else begin
            Printf.eprintf "%s: traced pass\n%!" (Workload.name w);
            Some (Measure.traced ~sample_dir:(Filename.dirname o.out) ~quick:o.quick ~seed:o.seed w)
          end
        in
        Results.workload_result ~quick:o.quick ~seed:o.seed w ~repeats ~traced)
      repeats
  in
  { Results.seed = o.seed; quick = o.quick; workloads = results }

let () =
  let o = parse Sys.argv in
  match (o.child, o.compare) with
  | Some w, _ -> Measure.child ~quick:o.quick ~seed:o.seed w
  | None, Some (a, b) -> if not (Results.compare (load a) (load b)) then exit 1
  | None, None when o.write_expected ->
    List.iter
      (fun w ->
        let r = Workload.prepare ~quick:false ~seed:o.seed w () in
        if r.problems <> [] then die (Workload.name w ^ ": " ^ String.concat "; " r.problems);
        (try Results.write_expected w ~seed:o.seed ~digest:r.digest ~artefacts:r.artefacts ~sim:r.sim
         with Sys_error e -> die e);
        Printf.printf "%s seed %d: %s\n" (Workload.name w) o.seed r.digest)
      o.workloads
  | None, None ->
    mkdir_p (Filename.dirname o.out);
    let sets = List.init o.sets (fun _ -> run_set o) in
    List.iter Results.print_set sets;
    Metrics.Json.save ~path:o.out (Results.to_json sets);
    Printf.printf "\nresults: %s\n" o.out;
    (match sets with
    | a :: (_ :: _ as rest) ->
      print_endline "\nagreement between sets 1 and 2 of the same code:";
      Printf.printf "sets agree: %b\n" (Results.agree a (List.hd rest))
    | _ -> ());
    print_endline (Results.summary_line (List.nth sets (List.length sets - 1)))
