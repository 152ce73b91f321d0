(* One row schema, one snapshot format and one diff for every gated bench
   suite.

   A suite emits rows: key columns naming the cell (scheduler, workload,
   tenant, ...) plus metric columns.  Each metric carries its check in
   code.  Exact and Rel compare against the committed baseline; Ceiling,
   Floor and Wall_ratchet are same-run bounds that need no baseline; Both
   pairs two checks on one column; Info columns are recorded and printed,
   never judged.  Snapshots are
   {schema_version: 2, suite, git_rev, seed, rows}. *)

type better = Lower | Higher

type check =
  | Exact  (** must equal the baseline: counts that never vary between runs *)
  | Rel of better * float
      (** within the tolerance (a fraction) of the baseline on the worse
          side, and not better than it by more than [loose] *)
  | Ceiling of float  (** same-run bound: value <= limit *)
  | Floor of float  (** same-run bound: value >= limit *)
  | Wall_ratchet of { limit : float; better : better; remeasure : unit -> float }
      (** a best-of-N wall-clock bound; a breach is re-measured once, and
          the better reading decides *)
  | Both of check * check
      (** both must pass: a baseline-relative check under an absolute
          bound that a regenerated baseline cannot loosen *)
  | Info

type metric = { name : string; value : float; check : check }

type key = (string * string) list

type row = { key : key; metrics : metric list }

type baseline = { suite : string; rows : (key * (string * float) list) list }

let schema_version = 2

(* a Rel metric that beats its baseline by more than this factor means
   the baseline no longer pins anything: it must be regenerated *)
let loose = 2.0

let row key metrics = { key; metrics }

let float ?(check = Info) name value = { name; value; check }

let int ?check name n = float ?check name (float_of_int n)

let bool ?check name b = int ?check name (Bool.to_int b)

(* ---------- snapshots ---------- *)

let to_json ~suite ~git_rev ~seed rows =
  let open Metrics.Json in
  let num v = if Float.is_integer v && Float.abs v < 1e15 then Int (int_of_float v) else Float v in
  Obj
    [
      ("schema_version", Int schema_version);
      ("suite", String suite);
      ("git_rev", String git_rev);
      ("seed", match seed with Some s -> Int s | None -> Null);
      ( "rows",
        List
          (List.map
             (fun r ->
               Obj
                 [
                   ("key", Obj (List.map (fun (k, v) -> (k, String v)) r.key));
                   ("metrics", Obj (List.map (fun m -> (m.name, num m.value)) r.metrics));
                 ])
             rows) );
    ]

exception Malformed of string

let of_json j =
  let open Metrics.Json in
  let need conv what o =
    match Option.bind (member what o) conv with
    | Some x -> x
    | None -> raise (Malformed ("missing or malformed " ^ what))
  in
  let fields what conv o =
    match member what o with
    | Some (Obj kvs) ->
      List.map
        (fun (k, v) ->
          match conv v with
          | Some x -> (k, x)
          | None -> raise (Malformed (Printf.sprintf "malformed %s.%s" what k)))
        kvs
    | _ -> raise (Malformed ("missing or malformed " ^ what))
  in
  match
    let v = need to_int "schema_version" j in
    if v <> schema_version then
      raise
        (Malformed
           (Printf.sprintf "schema_version %d, expected %d: regenerate the baseline" v
              schema_version));
    let row r = (fields "key" to_str r, fields "metrics" to_float r) in
    { suite = need to_str "suite" j; rows = List.map row (need to_list "rows" j) }
  with
  | b -> Ok b
  | exception Malformed why -> Error why

let load ~path =
  match Metrics.Json.parse_file ~path with
  | Error e -> Error ("cannot read baseline " ^ e)
  | Ok j -> Result.map_error (fun e -> Printf.sprintf "baseline %s: %s" path e) (of_json j)

(* ---------- the diff ---------- *)

type outcome = {
  checks : int;  (** judged metrics, Info excluded *)
  failures : (key * string) list;
  notes : string list;  (** ratchet passes that needed the re-measurement *)
}

let label key = String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) key)

let fmt v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 100. then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.3g" v

let rec needs_base = function
  | Exact | Rel _ -> true
  | Both (a, b) -> needs_base a || needs_base b
  | Ceiling _ | Floor _ | Wall_ratchet _ | Info -> false

let compared m = needs_base m.check

let judged m = match m.check with Info -> false | _ -> true

let worse better ~limit v = match better with Lower -> v > limit | Higher -> v < limit

(* the verdict on one metric, [base] being its baseline value: None passes *)
let rec judge ~note ~base m =
  let vs b =
    Printf.sprintf "%s, baseline %s (%+.1f%%)" (fmt m.value) (fmt b) (100. *. ((m.value /. b) -. 1.))
  in
  match (m.check, base) with
  | Both (a, b), _ -> (
    match judge ~note ~base { m with check = a } with
    | Some _ as failed -> failed
    | None -> judge ~note ~base { m with check = b })
  | Info, _ | (Exact | Rel _), None -> None
  | Exact, Some b -> if m.value = b then None else Some (vs b ^ ": must be identical")
  | Rel (better, tol), Some b ->
    let bound = match better with Lower -> b *. (1. +. tol) | Higher -> b *. (1. -. tol) in
    if worse better ~limit:bound m.value then
      Some (Printf.sprintf "%s: regressed past %.0f%%" (vs b) (100. *. tol))
    else
      let far = match better with Lower -> b /. loose | Higher -> b *. loose in
      let beats = worse (if better = Lower then Higher else Lower) ~limit:far m.value in
      if beats then Some (vs b ^ ": baseline too loose, regenerate")
      else None
  | Ceiling c, _ when m.value > c -> Some (Printf.sprintf "%s > ceiling %s" (fmt m.value) (fmt c))
  | Floor f, _ when m.value < f -> Some (Printf.sprintf "%s < floor %s" (fmt m.value) (fmt f))
  | (Ceiling _ | Floor _), _ -> None
  | Wall_ratchet { limit; better; remeasure }, _ ->
    if not (worse better ~limit m.value) then None
    else begin
      let again = remeasure () in
      let best = (if better = Lower then Float.min else Float.max) m.value again in
      let msg =
        Printf.sprintf "%s, re-measured %s, limit %s %s" (fmt m.value) (fmt again)
          (if better = Lower then "<=" else ">=")
          (fmt limit)
      in
      if worse better ~limit best then Some msg
      else begin
        note msg;
        None
      end
    end

let diff ?base ~suite rows =
  let failures = ref [] and notes = ref [] and checks = ref 0 in
  let fail key msg = failures := (key, msg) :: !failures in
  let base_rows = match base with Some b -> b.rows | None -> [] in
  Option.iter
    (fun (b : baseline) ->
      if b.suite <> suite then
        fail [] (Printf.sprintf "baseline is for suite %s, not %s" b.suite suite))
    base;
  List.iter
    (fun r ->
      let brow = List.assoc_opt r.key base_rows in
      (match brow with
      | None when base <> None && List.exists compared r.metrics ->
        fail r.key "row missing from the baseline"
      | None -> ()
      | Some vals ->
        List.iter
          (fun (n, _) ->
            if not (List.exists (fun m -> m.name = n) r.metrics) then
              fail r.key (n ^ ": in the baseline, missing from this run"))
          vals);
      List.iter
        (fun m ->
          if judged m then incr checks;
          let base_v = Option.bind brow (List.assoc_opt m.name) in
          if brow <> None && base_v = None then fail r.key (m.name ^ ": missing from the baseline")
          else
            let note msg = notes := Printf.sprintf "%s %s: %s" (label r.key) m.name msg :: !notes in
            Option.iter (fun why -> fail r.key (m.name ^ ": " ^ why)) (judge ~note ~base:base_v m))
        r.metrics)
    rows;
  List.iter
    (fun (k, _) ->
      if not (List.exists (fun r -> r.key = k) rows) then
        fail k "baseline row missing from this run")
    base_rows;
  { checks = !checks; failures = List.rev !failures; notes = List.rev !notes }

(* ---------- printing ---------- *)

(* One table per run of consecutive rows sharing key columns; metric
   columns are the union in first-seen order, "-" where a row lacks one.
   With an outcome, a verdict column marks each judged row. *)
let print ?outcome rows =
  let names r = List.map fst r.key in
  let rec groups = function
    | [] -> []
    | r :: _ as rows ->
      let rec split acc = function
        | x :: xs when names x = names r -> split (x :: acc) xs
        | rest -> List.rev acc :: groups rest
      in
      split [] rows
  in
  let verdict r =
    match outcome with
    | None -> []
    | Some o when List.mem_assoc r.key o.failures -> [ "FAIL" ]
    | Some _ -> [ (if List.exists judged r.metrics then "ok" else "-") ]
  in
  List.iter
    (fun g ->
      let cols =
        List.fold_left
          (fun acc r ->
            acc
            @ List.filter_map (fun m -> if List.mem m.name acc then None else Some m.name) r.metrics)
          [] g
      in
      let cell r c =
        match List.find_opt (fun m -> m.name = c) r.metrics with Some m -> fmt m.value | None -> "-"
      in
      Report.table
        ~header:(names (List.hd g) @ cols @ if Option.is_none outcome then [] else [ "verdict" ])
        (List.map (fun r -> List.map snd r.key @ List.map (cell r) cols @ verdict r) g))
    (groups rows)

(* print the rows with their verdicts, then every failure; true = passed *)
let report ~suite rows o =
  print ~outcome:o rows;
  List.iter (Printf.printf "  re-measured: %s\n") o.notes;
  List.iter
    (fun (k, msg) -> Printf.printf "  FAIL %s%s\n" (if k = [] then "" else label k ^ " ") msg)
    o.failures;
  Printf.printf "gate %s: %s (%d checks)\n%!" suite
    (if o.failures = [] then "ok" else Printf.sprintf "FAIL, %d failed" (List.length o.failures))
    o.checks;
  o.failures = []
