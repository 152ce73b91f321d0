type histogram = Stats.Histogram.t

(* Counters and gauges are readers of state their owner already keeps,
   evaluated at read time; histograms are the only state the registry
   holds. *)
type metric = Counter of (unit -> int) | Gauge of (unit -> float) | Histogram of histogram

type entry = { name : string; help : string; mutable metric : metric }

type t = {
  tbl : (string, entry) Hashtbl.t;
  mutable order : entry list; (* newest first *)
}

let create ?nr_cpus:_ () = { tbl = Hashtbl.create 64; order = [] }

let add t ~help name metric =
  let entry = { name; help; metric } in
  Hashtbl.replace t.tbl name entry;
  t.order <- entry :: t.order

let mismatch name shape =
  invalid_arg
    (Printf.sprintf "Registry: %s already registered with a different shape than %s" name shape)

(* Label-decorated metric names, Prometheus style.  The registry itself
   stays a flat name -> metric map: a labelled series is just a metric
   whose name carries its label block, and the exporters split the block
   back out.  Values are escaped so [labeled] round-trips through the
   text exposition format. *)
let labeled name labels =
  match labels with
  | [] -> name
  | _ ->
    let escape v =
      let buf = Buffer.create (String.length v) in
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | '\n' -> Buffer.add_string buf "\\n"
          | c -> Buffer.add_char buf c)
        v;
      Buffer.contents buf
    in
    Printf.sprintf "%s{%s}" name
      (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape v)) labels))

let base_name name =
  match String.index_opt name '{' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Inverse of [labeled]: parse the label block back into pairs.  Returns
   [(name, [])] when there is no block, and degrades to the stripped base
   name with no labels when the block is malformed — exporters must never
   raise on a hand-written series name. *)
let split name =
  match String.index_opt name '{' with
  | None -> (name, [])
  | Some i ->
    let base = String.sub name 0 i in
    let n = String.length name in
    let malformed = ref false in
    let labels = ref [] in
    let pos = ref (i + 1) in
    let peek () = if !pos < n then Some name.[!pos] else None in
    (* one k="v" pair; cursor left after the closing quote *)
    let parse_pair () =
      let kstart = !pos in
      while !pos < n && name.[!pos] <> '=' do incr pos done;
      if !pos >= n || !pos = kstart then malformed := true
      else begin
        let key = String.sub name kstart (!pos - kstart) in
        incr pos;
        if peek () <> Some '"' then malformed := true
        else begin
          incr pos;
          let buf = Buffer.create 16 in
          let closed = ref false in
          while (not !closed) && (not !malformed) && !pos < n do
            (match name.[!pos] with
            | '\\' ->
              incr pos;
              (match peek () with
              | Some '"' -> Buffer.add_char buf '"'
              | Some '\\' -> Buffer.add_char buf '\\'
              | Some 'n' -> Buffer.add_char buf '\n'
              | Some c -> Buffer.add_char buf c
              | None -> malformed := true)
            | '"' -> closed := true
            | c -> Buffer.add_char buf c);
            incr pos
          done;
          if !closed then labels := (key, Buffer.contents buf) :: !labels
          else malformed := true
        end
      end
    in
    let finished = ref false in
    while (not !finished) && not !malformed do
      parse_pair ();
      if not !malformed then
        match peek () with
        | Some ',' -> incr pos
        | Some '}' when !pos = n - 1 -> finished := true
        | _ -> malformed := true
    done;
    if !malformed then (base, []) else (base, List.rev !labels)

let shape = function Counter _ -> "counter" | Gauge _ -> "gauge" | Histogram _ -> "histogram"

(* re-registering a counter or gauge under its name replaces its reader *)
let reader t ~help name metric =
  match Hashtbl.find_opt t.tbl name with
  | Some e when shape e.metric = shape metric -> e.metric <- metric
  | Some _ -> mismatch name (shape metric)
  | None -> add t ~help name metric

let counter t ?(help = "") name read = reader t ~help name (Counter read)

let gauge_probe t ?(help = "") name probe = reader t ~help name (Gauge probe)

let histogram t ?(help = "") name =
  match Hashtbl.find_opt t.tbl name with
  | Some { metric = Histogram h; _ } -> h
  | Some _ -> mismatch name "histogram"
  | None ->
    let h = Stats.Histogram.create () in
    add t ~help name (Histogram h);
    h

let observe = Stats.Histogram.record

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of Stats.Histogram.t

let value_of = function
  | Counter read -> Counter_v (read ())
  | Gauge probe -> Gauge_v (probe ())
  | Histogram h -> Histogram_v h

let iter t f =
  List.iter (fun e -> f ~name:e.name ~help:e.help (value_of e.metric)) (List.rev t.order)

let find_histogram t name =
  match Hashtbl.find_opt t.tbl name with Some { metric = Histogram h; _ } -> Some h | _ -> None

module Private = struct
  let split = split
end
