(* Prometheus metric names admit [a-zA-Z0-9_:] only. *)
let sanitize name =
  String.map
    (fun c ->
      if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = ':'
      then c
      else '_')
    name

let prometheus reg =
  let buf = Buffer.create 4096 in
  (* emit HELP/TYPE headers once per base name, so the labelled series the
     cluster tier registers (one registry entry per label combination)
     share a single metric family in the exposition *)
  let headed = Hashtbl.create 16 in
  Registry.iter reg (fun ~name ~help v ->
      (* a label block produced by Registry.labeled survives as-is; only
         the base name is sanitized *)
      let base = sanitize (Registry.base_name name) in
      let labels =
        match String.index_opt name '{' with
        | Some i -> String.sub name i (String.length name - i)
        | None -> ""
      in
      (* series name for scalar samples, and a label-splicer for the
         histogram suffixes that must merge [le] into the block *)
      let series = base ^ labels in
      let with_label extra =
        if labels = "" then Printf.sprintf "{%s}" extra
        else Printf.sprintf "%s,%s}" (String.sub labels 0 (String.length labels - 1)) extra
      in
      let header kind =
        if not (Hashtbl.mem headed base) then begin
          Hashtbl.replace headed base ();
          if help <> "" then Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" base help);
          Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" base kind)
        end
      in
      match v with
      | Registry.Counter_v n ->
        header "counter";
        Buffer.add_string buf (Printf.sprintf "%s %d\n" series n)
      | Registry.Gauge_v g ->
        header "gauge";
        Buffer.add_string buf (Printf.sprintf "%s %g\n" series g)
      | Registry.Histogram_v h ->
        header "histogram";
        let cum = ref 0 in
        List.iter
          (fun (upper, count) ->
            cum := !cum + count;
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket%s %d\n" base
                 (with_label (Printf.sprintf "le=\"%d\"" upper))
                 !cum))
          (Stats.Histogram.to_buckets h);
        Buffer.add_string buf
          (Printf.sprintf "%s_bucket%s %d\n" base (with_label "le=\"+Inf\"") !cum);
        Buffer.add_string buf
          (Printf.sprintf "%s_sum%s %.0f\n" base labels
             (Stats.Histogram.mean h *. float_of_int (Stats.Histogram.count h)));
        Buffer.add_string buf
          (Printf.sprintf "%s_count%s %d\n" base labels (Stats.Histogram.count h)));
  Buffer.contents buf

(* RFC-4180 quoting: a labelled series name contains commas and double
   quotes ([name{a="x",b="y"}]), which would shear the header row apart
   in any CSV reader.  Quote when needed, doubling embedded quotes. *)
let csv_cell s =
  let needs_quoting =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
  in
  if not needs_quoting then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

(* Inverse of one row of [csv]: split a line into cells, honouring
   RFC-4180 quoting.  Used by the round-trip tests. *)
let csv_split line =
  let n = String.length line in
  let cells = ref [] in
  let buf = Buffer.create 32 in
  let i = ref 0 in
  let in_quotes = ref false in
  while !i < n do
    let c = line.[!i] in
    (if !in_quotes then
       if c = '"' then
         if !i + 1 < n && line.[!i + 1] = '"' then begin
           Buffer.add_char buf '"';
           incr i
         end
         else in_quotes := false
       else Buffer.add_char buf c
     else
       match c with
       | '"' -> in_quotes := true
       | ',' ->
         cells := Buffer.contents buf :: !cells;
         Buffer.clear buf
       | c -> Buffer.add_char buf c);
    incr i
  done;
  cells := Buffer.contents buf :: !cells;
  List.rev !cells

let csv sampler =
  let samples = Sampler.samples sampler in
  (* column order: first appearance across the run, so metrics created
     mid-run (per-callback counters) append on the right *)
  let cols = ref [] in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (s : Sampler.sample) ->
      List.iter
        (fun (k, _) ->
          if not (Hashtbl.mem seen k) then begin
            Hashtbl.replace seen k ();
            cols := k :: !cols
          end)
        s.values)
    samples;
  let cols = List.rev !cols in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (String.concat "," ("ts_ns" :: List.map csv_cell cols));
  Buffer.add_char buf '\n';
  List.iter
    (fun (s : Sampler.sample) ->
      Buffer.add_string buf (string_of_int s.ts);
      List.iter
        (fun col ->
          Buffer.add_char buf ',';
          match List.assoc_opt col s.values with
          | Some v ->
            Buffer.add_string buf
              (if Float.is_integer v && Float.abs v < 1e15 then
                 string_of_int (int_of_float v)
               else Printf.sprintf "%g" v)
          | None -> ())
        cols;
      Buffer.add_char buf '\n')
    samples;
  Buffer.contents buf

let percentiles_json h =
  let p q = Json.Int (Stats.Histogram.percentile h q) in
  Json.Obj
    [
      ("count", Json.Int (Stats.Histogram.count h));
      ("min", Json.Int (Stats.Histogram.min h));
      ("max", Json.Int (Stats.Histogram.max h));
      ("mean", Json.Float (Stats.Histogram.mean h));
      ("p50", p 50.0);
      ("p95", p 95.0);
      ("p99", p 99.0);
      ("p999", p 99.9);
    ]

let json_summary reg =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  Registry.iter reg (fun ~name ~help:_ v ->
      match v with
      | Registry.Counter_v n -> counters := (name, Json.Int n) :: !counters
      | Registry.Gauge_v g -> gauges := (name, Json.Float g) :: !gauges
      | Registry.Histogram_v h -> histograms := (name, percentiles_json h) :: !histograms);
  Json.Obj
    [
      ("counters", Json.Obj (List.rev !counters));
      ("gauges", Json.Obj (List.rev !gauges));
      ("histograms", Json.Obj (List.rev !histograms));
    ]

type format = Prometheus | Csv | Json_summary

let format_of_path path =
  if Filename.check_suffix path ".prom" || Filename.check_suffix path ".txt" then Prometheus
  else if Filename.check_suffix path ".csv" then Csv
  else Json_summary

let save ~path ?sampler format reg =
  let contents =
    match format with
    | Prometheus -> prometheus reg
    | Json_summary -> Json.to_string ~pretty:true (json_summary reg) ^ "\n"
    | Csv -> (
      match sampler with
      | Some s -> csv s
      | None -> invalid_arg "Export.save: csv output needs the sampler")
  in
  let oc = open_out path in
  Fun.protect (fun () -> output_string oc contents) ~finally:(fun () -> close_out oc)

module Private = struct
  let csv_cell = csv_cell

  let csv_split = csv_split
end
