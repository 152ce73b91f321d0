type op = Create | Acquire | Release

type event = { lock_id : int; op : op; tid : int }

let op_name = function Create -> "create" | Acquire -> "acquire" | Release -> "release"

(* Shared by the record writer and the replay decoder, so the two ends of
   the log can never drift apart. *)
let op_byte = function Create -> 0 | Acquire -> 1 | Release -> 2

let op_of_byte = function
  | 0 -> Some Create
  | 1 -> Some Acquire
  | 2 -> Some Release
  | _ -> None

type t = { lock_id : int }

type mode = Passthrough | Record of { sink : event -> unit; tid : unit -> int }

(* Mode, tap and the id counter are domain-local, not process-global:
   the bench harness runs independent machines in parallel domains, and
   each domain's machine must see only its own tap and id sequence.  They
   share one record, so a lock operation reads the domain state once. *)
type state = {
  mutable mode : mode;
  (* tracing tap, orthogonal to the mode: fires in both modes so the
     sanitizer can check acquire/release pairing online *)
  mutable tap : (op -> lock_id:int -> unit) option;
  mutable ids : int ref;
}

let state_key = Domain.DLS.new_key (fun () -> { mode = Passthrough; tap = None; ids = ref 0 })

let state () = Domain.DLS.get state_key

let mode () = (state ()).mode

let set_trace_tap f = (state ()).tap <- f

let tap op lock_id = match (state ()).tap with None -> () | Some f -> f op ~lock_id

let next_id () = (state ()).ids

let reset_ids () = next_id () := 0

let create () =
  let ids = next_id () in
  let lock_id = !ids in
  incr ids;
  (match mode () with
  | Record { sink; tid } -> sink { lock_id; op = Create; tid = tid () }
  | Passthrough -> ());
  tap Create lock_id;
  { lock_id }

let id t = t.lock_id

(* Passthrough runs [f] with no closure built, between the tap's acquire
   and release when a tap is set. *)
let passthrough t tap f s a b c d =
  match tap with
  | None -> f s a b c d
  | Some tap -> (
    tap Acquire ~lock_id:t.lock_id;
    match f s a b c d with
    | r ->
      tap Release ~lock_id:t.lock_id;
      r
    | exception e ->
      tap Release ~lock_id:t.lock_id;
      raise e)

let run f () () () () = f ()

let with_lock t f =
  let st = state () in
  match st.mode with
  | Passthrough -> passthrough t st.tap run f () () () ()
  | Record { sink; tid } ->
    let tid = tid () in
    sink { lock_id = t.lock_id; op = Acquire; tid };
    tap Acquire t.lock_id;
    Fun.protect f ~finally:(fun () ->
        tap Release t.lock_id;
        sink { lock_id = t.lock_id; op = Release; tid })

(* Anything that logs acquisitions goes through [with_lock], so lock
   events are the same whichever form a module uses. *)
let locked t f s a b c d =
  let st = state () in
  match st.mode with
  | Passthrough -> passthrough t st.tap f s a b c d
  | Record _ -> with_lock t (fun () -> f s a b c d)

(* The whole domain-local lock state as a first-class value, so a host's
   lock identity (its mode, tap and id counter) can travel with the host
   rather than with whichever domain happens to run it.  The fleet tier installs a host's context around every machine
   advance: under `fleet -j N` a host may run on a different domain each
   epoch, and without this its lock ids, record stream and trace tap would
   come from the wrong host (or from a pristine worker domain) — breaking
   the byte-identity of record logs between sequential and parallel runs. *)
type ctx = {
  ctx_mode : mode;
  ctx_tap : (op -> lock_id:int -> unit) option;
  ctx_ids : int ref;  (* aliased, not copied: creations during a run persist *)
}

let fresh_ctx () = { ctx_mode = Passthrough; ctx_tap = None; ctx_ids = ref 0 }

let capture_ctx () =
  let st = state () in
  { ctx_mode = st.mode; ctx_tap = st.tap; ctx_ids = st.ids }

(* [capture_ctx] without the allocation when nothing changed since [held]
   was captured: the fleet re-captures two contexts per host per epoch, and
   in a steady epoch every field is the one it held. *)
let recapture_ctx held =
  let st = state () in
  if st.mode == held.ctx_mode && st.tap == held.ctx_tap && st.ids == held.ctx_ids then held
  else capture_ctx ()

let install_ctx c =
  let st = state () in
  st.mode <- c.ctx_mode;
  st.tap <- c.ctx_tap;
  st.ids <- c.ctx_ids

let set_record_mode ~sink ~tid = (state ()).mode <- Record { sink; tid }

let set_passthrough_mode () = (state ()).mode <- Passthrough

module Private = struct
  let id = id
end
