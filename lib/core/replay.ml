type entry =
  | Call of { seq : int; tid : int; call : Message.call; reply : Message.reply }
  | Lock_event of { seq : int; tid : int; op : Lock.op; lock_id : int }

type report = {
  total_calls : int;
  threads : int;
  mismatches : (int * string) list;
  wall_seconds : float;
  order_abandoned : bool;
}

type info = {
  recorded_events : int option;
  dropped : int option;
  truncated : bool;
}

exception Incomplete_log of { dropped : int }

exception Malformed_log of { pos : int; reason : string }

type divergence = { failing_prefix : int; seq : int; detail : string; context : entry list }

let entry_seq = function Call { seq; _ } -> seq | Lock_event { seq; _ } -> seq

let entry_line = function
  | Call { tid; call; reply; _ } ->
    Printf.sprintf "C %d %s => %s" tid (Message.string_of_call call)
      (Message.string_of_reply reply)
  | Lock_event { tid; op; lock_id; _ } ->
    Printf.sprintf "L %d %s %d" tid (Lock.op_name op) lock_id

(* ---- decoding ----------------------------------------------------------- *)

let malformed pos reason = raise (Malformed_log { pos; reason })

(* One frame's payload: kind byte, then fields.  [decode] controls whether
   non-trailer payloads are parsed at all — [info] skips them, so probing a
   huge log costs no entry allocations. *)
let frame_payload cur ~decode ~entry ~seq ~recorded ~dropped =
  match Wire.get_byte cur with
  | 0x01 ->
    incr seq;
    if decode then begin
      let tid = Wire.get_uint cur in
      let call = Message.get_call cur in
      let reply = Message.get_reply cur in
      entry (Call { seq = !seq; tid; call; reply })
    end
  | 0x02 ->
    incr seq;
    if decode then begin
      let tid = Wire.get_uint cur in
      let op =
        match Lock.op_of_byte (Wire.get_byte cur) with
        | Some op -> op
        | None -> failwith "bad lock op byte"
      in
      let lock_id = Wire.get_uint cur in
      entry (Lock_event { seq = !seq; tid; op; lock_id })
    end
  | 0x7f ->
    let e = Wire.get_uint cur in
    let d = Wire.get_uint cur in
    recorded := Some e;
    dropped := Some d
  | k -> failwith (Printf.sprintf "unknown record kind 0x%02x" k)

(* Decodes every complete frame, then stops: a recording cut off mid-frame
   (crash, full disk) salvages everything before the cut and is flagged
   [truncated] instead of raising.  Anything else that fails to decode — no
   header, an unknown kind or opcode, fields overrunning their frame — is
   corruption and raises [Malformed_log] naming the 1-based frame index. *)
let fold log ~decode ~entry =
  let header = String.length Record.magic in
  if String.length log < header || String.sub log 0 header <> Record.magic then
    malformed 0 "not an Enoki record log (missing header)";
  let cur = Wire.cursor ~pos:header log in
  let frame = ref 0 and seq = ref 0 in
  let recorded = ref None and dropped = ref None in
  let truncated = ref false in
  (try
     while not (Wire.at_end cur) do
       let len = Wire.get_uint cur in
       incr frame;
       if len < 0 then malformed !frame "bad frame length";
       if len > String.length log - cur.pos then raise Wire.Truncated;
       let frame_end = cur.pos + len in
       (* the frame fits in the log, so running out of bytes while decoding
          it means its fields overran the length, not a cut-off recording *)
       (match frame_payload cur ~decode ~entry ~seq ~recorded ~dropped with
       | () -> if cur.pos > frame_end then malformed !frame "fields overrun the frame"
       | exception Wire.Truncated -> malformed !frame "fields overrun the frame"
       | exception (Failure reason | Invalid_argument reason) -> malformed !frame reason);
       cur.pos <- frame_end
     done
   with Wire.Truncated -> truncated := true);
  { recorded_events = !recorded; dropped = !dropped; truncated = !truncated }

let parse_full log =
  let acc = ref [] in
  let info = fold log ~decode:true ~entry:(fun e -> acc := e :: !acc) in
  (List.rev !acc, info)

let parse log = fst (parse_full log)

let info log = fold log ~decode:false ~entry:(fun _ -> ())

(* ---- replay ------------------------------------------------------------- *)

let run_entries (module S : Sched_trait.S) entries =
  (* per-lock acquisition order, and per-thread call streams *)
  let lock_order : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let calls_by_tid : (int, (int * Message.call * Message.reply) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun entry ->
      match entry with
      | Lock_event { tid; op = Lock.Acquire; lock_id; _ } ->
        let r =
          match Hashtbl.find_opt lock_order lock_id with
          | Some r -> r
          | None ->
            let r = ref [] in
            Hashtbl.add lock_order lock_id r;
            r
        in
        r := tid :: !r
      | Lock_event _ -> ()
      | Call { seq; tid; call; reply } ->
        let r =
          match Hashtbl.find_opt calls_by_tid tid with
          | Some r -> r
          | None ->
            let r = ref [] in
            Hashtbl.add calls_by_tid tid r;
            r
        in
        r := (seq, call, reply) :: !r)
    entries;
  let order lock_id =
    match Hashtbl.find_opt lock_order lock_id with Some r -> List.rev !r | None -> []
  in
  (* map OS threads to recorded kernel-thread ids *)
  let tid_table : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let tid_mutex = Mutex.create () in
  let my_tid () =
    Mutex.lock tid_mutex;
    let tid = try Hashtbl.find tid_table (Thread.id (Thread.self ())) with Not_found -> -1 in
    Mutex.unlock tid_mutex;
    tid
  in
  Lock.reset_ids ();
  Lock.set_replay_mode ~order ~tid:my_tid;
  let started = Unix.gettimeofday () in
  let result =
    Fun.protect ~finally:Lock.set_passthrough_mode (fun () ->
        (* identical scheduler code, now constructed at userspace *)
        let st = S.create (Ctx.inert ()) in
        let packed = Sched_trait.Packed ((module S), st) in
        let mismatches = ref [] in
        let mm_mutex = Mutex.create () in
        let total = ref 0 in
        (* A diverged scheduler may acquire locks out of step with the
           recording, which would wedge the strict admission order forever.
           Two triggers release the order: the first reply mismatch
           (divergence proven), and a stall watchdog for wedges that bite
           before any reply differs.  Honest replays hit neither. *)
        let abandoned = ref false in
        let progress = Atomic.make 0 in
        let finished = Atomic.make false in
        let abandon () =
          Mutex.lock mm_mutex;
          if not !abandoned then begin
            abandoned := true;
            Lock.abandon_replay_order ()
          end;
          Mutex.unlock mm_mutex
        in
        let run_thread (tid, calls) () =
          Mutex.lock tid_mutex;
          Hashtbl.replace tid_table (Thread.id (Thread.self ())) tid;
          Mutex.unlock tid_mutex;
          List.iter
            (fun (seq, call, expected) ->
              let got = Lib_enoki.process packed call in
              Atomic.incr progress;
              if not (Message.reply_matches expected got) then begin
                Mutex.lock mm_mutex;
                mismatches :=
                  ( seq,
                    Printf.sprintf "%s: recorded %s, replayed %s" (Message.call_name call)
                      (Message.string_of_reply expected) (Message.string_of_reply got) )
                  :: !mismatches;
                Mutex.unlock mm_mutex;
                abandon ()
              end)
            calls
        in
        let streams =
          Hashtbl.fold (fun tid r acc -> (tid, List.rev !r) :: acc) calls_by_tid []
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        in
        List.iter (fun (_, calls) -> total := !total + List.length calls) streams;
        let threads = List.map (fun s -> Thread.create (run_thread s) ()) streams in
        let watchdog =
          Thread.create
            (fun () ->
              let last = ref (-1) in
              let stalled = ref 0 in
              while not (Atomic.get finished) do
                Thread.delay 0.05;
                let p = Atomic.get progress in
                if p = !last then begin
                  incr stalled;
                  if !stalled >= 10 then begin
                    (* half a second with zero calls completing: wedged *)
                    abandon ();
                    stalled := 0
                  end
                end
                else begin
                  last := p;
                  stalled := 0
                end
              done)
            ()
        in
        List.iter Thread.join threads;
        Atomic.set finished true;
        Thread.join watchdog;
        (!total, List.length streams, List.sort compare !mismatches, !abandoned))
  in
  let total_calls, threads, mismatches, order_abandoned = result in
  { total_calls; threads; mismatches; wall_seconds = Unix.gettimeofday () -. started;
    order_abandoned }

let run ?(allow_drops = false) (module S : Sched_trait.S) ~log =
  let entries, info = parse_full log in
  (match info.dropped with
  | Some d when d > 0 && not allow_drops -> raise (Incomplete_log { dropped = d })
  | _ -> ());
  run_entries (module S) entries

(* ---- divergence bisection ----------------------------------------------- *)

let bisect ?(window = 3) (module S : Sched_trait.S) ~log =
  let entries, _ = parse_full log in
  let arr = Array.of_list entries in
  let n = Array.length arr in
  let prefix k = Array.to_list (Array.sub arr 0 k) in
  let fails k = (run_entries (module S) (prefix k)).mismatches <> [] in
  if n = 0 || not (fails n) then None
  else begin
    (* binary search for the smallest failing prefix: replay is
       deterministic (recorded inputs, recorded lock order), so
       fails is monotone in the prefix length *)
    let lo = ref 1 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fails mid then hi := mid else lo := mid + 1
    done;
    let k = !lo in
    let seq, detail =
      match (run_entries (module S) (prefix k)).mismatches with
      | (seq, detail) :: _ -> (seq, detail)
      | [] -> (entry_seq arr.(k - 1), "first divergent entry (mismatch details unavailable)")
    in
    let lo_i = max 0 (k - 1 - window) and hi_i = min (n - 1) (k - 1 + window) in
    let context = Array.to_list (Array.sub arr lo_i (hi_i - lo_i + 1)) in
    Some { failing_prefix = k; seq; detail; context }
  end

(* ---- reporting ---------------------------------------------------------- *)

let pp_report fmt r =
  Format.fprintf fmt "replayed %d calls on %d threads in %.3fs: %s" r.total_calls r.threads
    r.wall_seconds
    (match r.mismatches with
    | [] -> "all replies matched"
    | ms -> Printf.sprintf "%d MISMATCHES" (List.length ms));
  (match r.mismatches with
  | [] -> ()
  | ms ->
    let rec show n = function
      | [] -> ()
      | _ when n = 0 ->
        Format.fprintf fmt "@\n  ... and %d more" (List.length ms - 5)
      | (seq, detail) :: rest ->
        Format.fprintf fmt "@\n  entry %d: %s" seq detail;
        show (n - 1) rest
    in
    show 5 ms);
  if r.order_abandoned then
    Format.fprintf fmt "@\n  (recorded lock order released after divergence to keep replay live)"
