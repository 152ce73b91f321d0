type ns = int

type kind =
  | Panic
  | Wrong_reply
  | Bad_select
  | Latency of ns
  | Corrupt_hint
  | Wedge of ns

type rule = {
  kind : kind;
  call : string option;
  prob : float;
  after : int;
  max_fires : int;
}

type t = rule list

exception Injected of string

let kind_name = function
  | Panic -> "panic"
  | Wrong_reply -> "wrong-reply"
  | Bad_select -> "bad-select"
  | Latency _ -> "latency"
  | Corrupt_hint -> "corrupt-hint"
  | Wedge _ -> "wedge"

(* faults that forge a specific reply shape only exist on one message *)
let implicit_call = function
  | Wrong_reply -> Some "pick_next_task"
  | Bad_select -> Some "select_task_rq"
  | Corrupt_hint -> Some "parse_hint"
  | Panic | Latency _ | Wedge _ -> None

let matches rule ~call =
  (match rule.call with Some c -> c = call | None -> true)
  && match implicit_call rule.kind with Some c -> c = call | None -> true

(* ---------- spec grammar ---------- *)

let default_latency = 50_000 (* 50 us spike *)

let default_wedge = 20_000_000 (* 20 ms: larger than any sane call budget *)

let parse_rule item =
  let ( let* ) = Result.bind in
  let head, opts =
    match String.index_opt item ':' with
    | Some i ->
      ( String.sub item 0 i,
        String.sub item (i + 1) (String.length item - i - 1) |> String.split_on_char ',' )
    | None -> (item, [])
  in
  let kind_s, call =
    match String.index_opt head '@' with
    | Some i ->
      ( String.sub head 0 i,
        Some (String.sub head (i + 1) (String.length head - i - 1)) )
    | None -> (head, None)
  in
  let* kvs =
    List.fold_left
      (fun acc opt ->
        let* acc = acc in
        match String.split_on_char '=' opt with
        | [ k; v ] -> Ok ((k, v) :: acc)
        | _ -> Error (Printf.sprintf "malformed option %S (want key=val)" opt))
      (Ok []) opts
  in
  let* () =
    match call with
    | Some "" -> Error "empty @call gate"
    | Some _ | None -> Ok ()
  in
  let* () =
    match List.find_opt (fun (k, _) -> not (List.mem k [ "p"; "after"; "max"; "ns" ])) kvs with
    | Some (k, _) -> Error (Printf.sprintf "unknown option %S (p|after|max|ns)" k)
    | None -> Ok ()
  in
  let num conv key default =
    match List.assoc_opt key kvs with
    | None -> Ok default
    | Some v -> (
      match conv v with
      | Some n -> Ok n
      | None -> Error (Printf.sprintf "bad value %S for %s" v key))
  in
  (* call counts and durations: a negative one cannot be honoured *)
  let count key default =
    let* n = num int_of_string_opt key default in
    if n < 0 then Error (Printf.sprintf "%s=%d must be non-negative" key n) else Ok n
  in
  let* prob = num float_of_string_opt "p" 1.0 in
  let* after = count "after" 0 in
  let* max_fires = count "max" max_int in
  let* ns_opt =
    if List.mem_assoc "ns" kvs then Result.map Option.some (count "ns" 0) else Ok None
  in
  let* kind =
    match kind_s with
    | "panic" -> Ok Panic
    | "wrong-reply" -> Ok Wrong_reply
    | "bad-select" -> Ok Bad_select
    | "latency" -> Ok (Latency (Option.value ns_opt ~default:default_latency))
    | "corrupt-hint" -> Ok Corrupt_hint
    | "wedge" -> Ok (Wedge (Option.value ns_opt ~default:default_wedge))
    | s -> Error (Printf.sprintf "unknown fault kind %S" s)
  in
  (* written so that nan fails it too *)
  if not (prob >= 0.0 && prob <= 1.0) then Error (Printf.sprintf "p=%g out of [0,1]" prob)
  else
    match (ns_opt, kind) with
    | Some _, (Panic | Wrong_reply | Bad_select | Corrupt_hint) ->
      Error (Printf.sprintf "ns only applies to latency/wedge, not %s" (kind_name kind))
    | _ -> Ok { kind; call; prob; after; max_fires }

let parse_spec spec =
  let items =
    String.split_on_char ';' spec |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if items = [] then Error "empty fault plan"
  else
    List.fold_left
      (fun acc item ->
        Result.bind acc (fun rules ->
            Result.map (fun r -> r :: rules) (parse_rule item)))
      (Ok []) items
    |> Result.map List.rev

(* Presets are spec strings themselves, so the grammar is the single
   source of truth and [to_string] round-trips. *)
let preset_specs =
  [
    (* one-shot panic once the run is warm: the quarantine/failover demo *)
    ("panic", "panic@task_wakeup:after=400,max=1");
    (* a stale forged token on ~2% of picks *)
    ("wrong-reply", "wrong-reply:p=0.02");
    (* an absurd cpu on ~5% of selects *)
    ("bad-select", "bad-select:p=0.05");
    (* 250 us compute spikes on ~1% of calls *)
    ("latency", "latency:p=0.01,ns=250000");
    (* the module wedges solid mid-run: watchdog/rollback material *)
    ("wedge", "wedge@pick_next_task:after=800");
    (* everything at once, low probability *)
    ( "chaos",
      "panic@task_wakeup:p=0.002;wrong-reply:p=0.02;bad-select:p=0.02;latency:p=0.01,ns=250000"
    );
  ]

let parse spec =
  match List.assoc_opt (String.trim spec) preset_specs with
  | Some canned -> parse_spec canned
  | None -> parse_spec spec

let rule_to_string r =
  let buf = Buffer.create 32 in
  Buffer.add_string buf (kind_name r.kind);
  (match r.call with
  | Some c -> Buffer.add_string buf ("@" ^ c)
  | None -> ());
  let opts = ref [] in
  (match r.kind with
  | Latency ns | Wedge ns -> opts := [ ("ns", string_of_int ns) ]
  | Panic | Wrong_reply | Bad_select | Corrupt_hint -> ());
  if r.max_fires <> max_int then opts := ("max", string_of_int r.max_fires) :: !opts;
  if r.after <> 0 then opts := ("after", string_of_int r.after) :: !opts;
  if r.prob <> 1.0 then opts := ("p", Printf.sprintf "%g" r.prob) :: !opts;
  (match !opts with
  | [] -> ()
  | kvs ->
    Buffer.add_char buf ':';
    Buffer.add_string buf (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)));
  Buffer.contents buf

let to_string t = String.concat ";" (List.map rule_to_string t)

module Private = struct
  let presets () =
    let force = function Ok t -> t | Error e -> invalid_arg ("Fault.Plan preset: " ^ e) in
    List.map (fun (name, spec) -> (name, force (parse_spec spec))) preset_specs
end
