type counter = { c_shards : int array }

type gauge = { mutable g_value : float; mutable g_probe : (unit -> float) option }

type histogram = { h_shards : Stats.Histogram.t array }

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type entry = { name : string; help : string; metric : metric }

type t = {
  nr : int;
  tbl : (string, entry) Hashtbl.t;
  mutable order : entry list; (* newest first *)
}

let create ?(nr_cpus = 1) () =
  if nr_cpus <= 0 then invalid_arg "Registry.create: nr_cpus must be positive";
  { nr = nr_cpus; tbl = Hashtbl.create 64; order = [] }

let nr_cpus t = t.nr

let register t ~help name make shape_name extract =
  match Hashtbl.find_opt t.tbl name with
  | Some entry -> (
    match extract entry.metric with
    | Some m -> m
    | None ->
      invalid_arg
        (Printf.sprintf "Registry: %s already registered with a different shape than %s" name
           shape_name))
  | None ->
    let m = make () in
    let entry = { name; help; metric = m } in
    Hashtbl.replace t.tbl name entry;
    t.order <- entry :: t.order;
    (match extract m with Some v -> v | None -> assert false)

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

let counter t ?(help = "") name =
  register t ~help name
    (fun () -> Counter { c_shards = Array.make t.nr 0 })
    "counter"
    (function Counter c -> Some c | _ -> None)

let gauge t ?(help = "") name =
  register t ~help name
    (fun () -> Gauge { g_value = 0.0; g_probe = None })
    "gauge"
    (function Gauge g -> Some g | _ -> None)

let gauge_probe t ?help name f =
  let g = gauge t ?help name in
  g.g_probe <- Some f

let histogram t ?(help = "") name =
  register t ~help name
    (fun () -> Histogram { h_shards = Array.init t.nr (fun _ -> Stats.Histogram.create ()) })
    "histogram"
    (function Histogram h -> Some h | _ -> None)

(* ---------- recording ---------- *)

let shard shards cpu = if cpu >= 0 && cpu < Array.length shards then cpu else 0

let incr c ~cpu =
  let i = shard c.c_shards cpu in
  c.c_shards.(i) <- c.c_shards.(i) + 1

let set g v = g.g_value <- v

let observe h ~cpu v = Stats.Histogram.record h.h_shards.(shard h.h_shards cpu) v

(* ---------- reading ---------- *)

let counter_value c = Array.fold_left ( + ) 0 c.c_shards

let gauge_value g = match g.g_probe with Some f -> f () | None -> g.g_value

let merged h =
  let dst = Stats.Histogram.create () in
  Array.iter (fun src -> Stats.Histogram.merge ~dst ~src) h.h_shards;
  dst

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of Stats.Histogram.t

let value_of = function
  | Counter c -> Counter_v (counter_value c)
  | Gauge g -> Gauge_v (gauge_value g)
  | Histogram h -> Histogram_v (merged h)

let iter t f =
  List.iter (fun e -> f ~name:e.name ~help:e.help (value_of e.metric)) (List.rev t.order)

let find_counter t name =
  match Hashtbl.find_opt t.tbl name with Some { metric = Counter c; _ } -> Some c | _ -> None

let find_histogram t name =
  match Hashtbl.find_opt t.tbl name with Some { metric = Histogram h; _ } -> Some h | _ -> None
