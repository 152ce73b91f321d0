(** The replay half of record-and-replay (§3.4).

    Replay consumes a record log and drives the {e same scheduler code} that
    ran in the kernel, now at userspace, sending the recorded messages in
    per-kernel-thread order: one real OS thread is created per recorded
    kernel thread, and {!Lock} admits threads into each critical section in
    the recorded acquisition order.  Responses are validated against the
    recorded ones, flagging any divergence to the user.

    The log is {!Record}'s one format: {!Record.magic}, then one frame per
    entry, then a trailer frame.  Entry [seq] numbers are 1-based frame
    indices, so they name positions in the log. *)

type entry =
  | Call of { seq : int; tid : int; call : Message.call; reply : Message.reply }
  | Lock_event of { seq : int; tid : int; op : Lock.op; lock_id : int }

type report = {
  total_calls : int;
  threads : int;
  mismatches : (int * string) list;
      (** (log position, description) for every reply diverging from the
          recording, in log order.  The first mismatch is produced under
          the recorded lock order and is authoritative; once divergence is
          established the order is released (see [order_abandoned]), so
          later mismatches are advisory. *)
  wall_seconds : float;
  order_abandoned : bool;
      (** the replayed scheduler diverged far enough (reply mismatch or a
          lock-admission wedge) that the recorded lock order was released
          to keep the replay live *)
}

(** What the log header/trailer says about a recording, without decoding
    entries (cheap even for huge logs). *)
type info = {
  recorded_events : int option;  (** [None]: no trailer (e.g. cut-off run) *)
  dropped : int option;
  truncated : bool;  (** log ends mid-frame; complete frames salvaged *)
}

(** Raised by {!run} when the log's trailer records ring-overrun drops: the
    recording has holes, so a replay divergence would be meaningless.  Pass
    [~allow_drops:true] to replay anyway. *)
exception Incomplete_log of { dropped : int }

(** Raised by every entry point below for input that is not a well-formed
    record log: no {!Record.magic} header ([pos = 0]), or a frame that
    does not decode (unknown kind or opcode, bad lock op, fields overrunning
    the frame length; [pos] is the 1-based frame index).  A log that
    merely ends mid-frame is not malformed (see {!info}). *)
exception Malformed_log of { pos : int; reason : string }

(** The result of {!bisect}: [failing_prefix] is the length of the minimal
    diverging prefix, [seq]/[detail] name the first divergent call, and
    [context] is a window of log entries around it. *)
type divergence = { failing_prefix : int; seq : int; detail : string; context : entry list }

(** Parse a record log.  Raises {!Malformed_log} on corrupt input; a log
    that simply ends mid-frame yields the complete frames (see {!info}). *)
val parse : string -> entry list

(** {!parse} plus the header/trailer {!info} from the same pass. *)
val parse_full : string -> entry list * info

(** Header/trailer inspection only — entries are scanned, not decoded. *)
val info : string -> info

(** [run (module S) ~log] replays the log against a fresh instance of [S]
    built with an inert context.  Raises {!Incomplete_log} if the trailer
    records dropped events, unless [allow_drops] is set. *)
val run : ?allow_drops:bool -> (module Sched_trait.S) -> log:string -> report

(** Replay an already-parsed entry list (no drop check — the caller has the
    {!info} if it wants one). *)
val run_entries : (module Sched_trait.S) -> entry list -> report

(** [bisect (module S) ~log] delta-debugs a diverging log: binary-searches
    for the minimal failing prefix and reports the first divergent call
    with [window] entries of context either side (default 3).  [None] if
    the full log replays clean.  Costs O(log n) replays. *)
val bisect : ?window:int -> (module Sched_trait.S) -> log:string -> divergence option

(** One-line rendering of an entry, for context printing. *)
val entry_line : entry -> string

(** One-line verdict; on mismatch, also the first few divergences with
    their log positions. *)
val pp_report : Format.formatter -> report -> unit
