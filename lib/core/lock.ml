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

type t = {
  lock_id : int;
  lock_name : string;
  mutex : Mutex.t;
  cond : Condition.t;
  mutable expected : int list; (* replay: tids in acquisition order *)
  mutable expected_loaded : bool;
}

type mode =
  | Passthrough
  | Record of { sink : event -> unit; tid : unit -> int }
  | Replay of { order : int -> int list; tid : unit -> int }

(* Mode, tap and the id counter are domain-local, not process-global:
   the bench harness runs independent machines in parallel domains, and
   each domain's machine must see only its own tap and id sequence.  They
   share one record, so a lock operation reads the domain state once. *)
type state = {
  mutable mode : mode;
  (* tracing tap, orthogonal to record/replay: fires in every mode so the
     sanitizer can check acquire/release pairing online *)
  mutable tap : (op -> lock_id:int -> unit) option;
  mutable ids : int ref;
  (* locks created while in replay mode, so the replay harness can release
     the recorded admission order on all of them at once when the replayed
     scheduler has diverged (see [abandon_replay_order]) *)
  mutable replay_locks : t list ref;
}

let state_key =
  Domain.DLS.new_key (fun () -> { mode = Passthrough; tap = None; ids = ref 0; replay_locks = ref [] })

let state () = Domain.DLS.get state_key

let mode () = (state ()).mode

let set_trace_tap f = (state ()).tap <- f

let tap op lock_id = match (state ()).tap with None -> () | Some f -> f op ~lock_id

let next_id () = (state ()).ids

let reset_ids () = next_id () := 0

let create ?(name = "lock") () =
  let ids = next_id () in
  let lock_id = !ids in
  incr ids;
  let t =
    {
      lock_id;
      lock_name = name;
      mutex = Mutex.create ();
      cond = Condition.create ();
      expected = [];
      expected_loaded = false;
    }
  in
  (match mode () with
  | Record { sink; tid } -> sink { lock_id; op = Create; tid = tid () }
  | Replay _ ->
    let locks = (state ()).replay_locks in
    locks := t :: !locks
  | Passthrough -> ());
  tap Create lock_id;
  t

let id t = t.lock_id

let name t = t.lock_name

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
  | Replay { order; tid } ->
    let my_tid = tid () in
    Mutex.lock t.mutex;
    if not t.expected_loaded then begin
      t.expected <- order t.lock_id;
      t.expected_loaded <- true
    end;
    (* wait for this thread's turn per the recorded acquisition order *)
    let rec wait () =
      match t.expected with
      | next :: _ when next = my_tid -> ()
      | [] -> () (* more acquisitions than recorded: admit freely *)
      | _ :: _ ->
        Condition.wait t.cond t.mutex;
        wait ()
    in
    wait ();
    (match t.expected with _ :: rest -> t.expected <- rest | [] -> ());
    tap Acquire t.lock_id;
    let finally () =
      tap Release t.lock_id;
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex
    in
    Fun.protect f ~finally

(* Anything that logs or orders acquisitions goes through [with_lock], so
   lock events are the same whichever form a module uses. *)
let locked t f s a b c d =
  let st = state () in
  match st.mode with
  | Passthrough -> passthrough t st.tap f s a b c d
  | Record _ | Replay _ -> with_lock t (fun () -> f s a b c d)

(* The whole domain-local lock state as a first-class value, so a host's
   lock identity (its mode, tap, id counter and replay-created locks) can
   travel with the host rather than with whichever domain happens to run
   it.  The fleet tier installs a host's context around every machine
   advance: under `fleet -j N` a host may run on a different domain each
   epoch, and without this its lock ids, record stream and trace tap would
   come from the wrong host (or from a pristine worker domain) — breaking
   the byte-identity of record logs between sequential and parallel runs. *)
type ctx = {
  ctx_mode : mode;
  ctx_tap : (op -> lock_id:int -> unit) option;
  ctx_ids : int ref;  (* aliased, not copied: creations during a run persist *)
  ctx_replay_locks : t list ref;
}

let fresh_ctx () = { ctx_mode = Passthrough; ctx_tap = None; ctx_ids = ref 0; ctx_replay_locks = ref [] }

let capture_ctx () =
  let st = state () in
  { ctx_mode = st.mode; ctx_tap = st.tap; ctx_ids = st.ids; ctx_replay_locks = st.replay_locks }

(* [capture_ctx] without the allocation when nothing changed since [held]
   was captured: the fleet re-captures two contexts per host per epoch, and
   in a steady epoch every field is the one it held. *)
let recapture_ctx held =
  let st = state () in
  if
    st.mode == held.ctx_mode
    && st.tap == held.ctx_tap
    && st.ids == held.ctx_ids
    && st.replay_locks == held.ctx_replay_locks
  then held
  else capture_ctx ()

let install_ctx c =
  let st = state () in
  st.mode <- c.ctx_mode;
  st.tap <- c.ctx_tap;
  st.ids <- c.ctx_ids;
  st.replay_locks <- c.ctx_replay_locks

let set_record_mode ~sink ~tid = (state ()).mode <- Record { sink; tid }

let set_replay_mode ~order ~tid =
  let st = state () in
  st.replay_locks := [];
  st.mode <- Replay { order; tid }

let set_passthrough_mode () = (state ()).mode <- Passthrough

(* A replay whose scheduler has diverged from the recording may acquire
   locks a different number of times (or in a different nesting) than the
   log says, wedging every thread on a turn that never comes.  Once
   divergence is established, order fidelity is moot — release the
   recorded order on every replay-created lock so the replay finishes and
   reports instead of hanging. *)
let abandon_replay_order () =
  List.iter
    (fun t ->
      Mutex.lock t.mutex;
      t.expected <- [];
      t.expected_loaded <- true;
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex)
    !((state ()).replay_locks)
