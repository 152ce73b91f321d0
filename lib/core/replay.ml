type entry =
  | Call of { seq : int; tid : int; call : Message.call; reply : Message.reply }
  | Lock_event of { seq : int; tid : int; op : Lock.op; lock_id : int }

type report = {
  total_calls : int;
  threads : int;
  mismatches : (int * string) list;
  wall_seconds : float;
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

(* The largest cpu id a call names, or -1: its cpu fields and its allowed
   masks, so a replay is sized for the machine that was recorded. *)
let max_cpu : Message.call -> int = function
  | Pick_next_task { cpu; _ }
  | Pnt_err { cpu; _ }
  | Task_blocked { cpu; _ }
  | Task_preempt { cpu; _ }
  | Task_yield { cpu; _ }
  | Task_departed { cpu; _ }
  | Task_tick { cpu; _ }
  | Balance { cpu }
  | Balance_err { cpu; _ } -> cpu
  | Task_wakeup { waker_cpu; _ } -> waker_cpu
  | Migrate_task_rq { from_cpu; _ } -> from_cpu
  | Select_task_rq { waker_cpu; allowed; _ } -> List.fold_left Int.max waker_cpu allowed
  | Task_affinity_changed { allowed; _ } -> List.fold_left Int.max (-1) allowed
  | Get_policy | Task_dead _ | Task_new _ | Task_prio_changed _ | Parse_hint _ -> -1

let mismatch call ~expected got =
  Printf.sprintf "%s: recorded %s, replayed %s" (Message.call_name call)
    (Message.string_of_reply expected) got

(* The simulator makes every call on one thread, one at a time, so the
   log is one total order that already agrees with every lock's recorded
   acquisition order: feeding the calls back in log order replays the
   recorded interleaving exactly, and the lock events need no action.  A
   first pass reads the trailer, so a log with drops is refused before
   anything runs, and sizes the inert context from the cpus the log names;
   the second feeds each call to the module straight from the decoder. *)
let run ?(allow_drops = false) (module S : Sched_trait.S) ~log =
  let started = Profile.now_ns () in
  let top = ref 0 in
  let info =
    fold log ~decode:true ~entry:(function
      | Call { tid; call; _ } -> top := Int.max !top (Int.max tid (max_cpu call))
      | Lock_event { tid; _ } -> top := Int.max !top tid)
  in
  (match info.dropped with
  | Some d when d > 0 && not allow_drops -> raise (Incomplete_log { dropped = d })
  | _ -> ());
  let nr_cpus = !top + 1 in
  let outer = Lock.capture_ctx () in
  Lock.install_ctx (Lock.fresh_ctx ());
  Fun.protect ~finally:(fun () -> Lock.install_ctx outer) @@ fun () ->
  let packed = Sched_trait.Packed ((module S), S.create (Ctx.inert ~nr_cpus ())) in
  let seen = Array.make nr_cpus false in
  let threads = ref 0 and total = ref 0 and mismatches = ref [] in
  let replay_call = function
    | Lock_event _ -> ()
    | Call { seq; tid; call; reply = expected } -> (
      incr total;
      if not seen.(tid) then begin
        seen.(tid) <- true;
        incr threads
      end;
      (* a raising call is that call's mismatch; the replay goes on *)
      match Lib_enoki.process packed call with
      | got ->
        if not (Message.reply_matches expected got) then
          mismatches := (seq, mismatch call ~expected (Message.string_of_reply got)) :: !mismatches
      | exception e ->
        mismatches := (seq, mismatch call ~expected ("raised " ^ Printexc.to_string e)) :: !mismatches)
  in
  ignore (fold log ~decode:true ~entry:replay_call);
  {
    total_calls = !total;
    threads = !threads;
    mismatches = List.rev !mismatches;
    wall_seconds = float_of_int (Profile.now_ns () - started) *. 1e-9;
  }

(* ---- divergence bisection ----------------------------------------------- *)

(* A serial replay of a prefix does exactly what the full replay does up to
   its end, so the first mismatch of one full replay ends the minimal
   failing prefix. *)
let bisect ?(window = 3) sched ~log =
  match (run ~allow_drops:true sched ~log).mismatches with
  | [] -> None
  | (seq, detail) :: _ ->
    let context = List.filter (fun e -> abs (entry_seq e - seq) <= window) (parse log) in
    Some { failing_prefix = seq; seq; detail; context }

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
    show 5 ms)

module Private = struct
  let parse = parse

  let parse_full = parse_full
end
