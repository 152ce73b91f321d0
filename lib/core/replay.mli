(** The replay half of record-and-replay (§3.4).

    Replay consumes a record log and drives the {e same scheduler code} that
    ran in the kernel, now at userspace, and validates each reply against
    the recorded one, flagging any divergence to the user.  The paper runs
    one OS thread per recorded kernel thread, with each lock admitting
    threads in the recorded order, because real kernel calls overlap.  The
    simulator makes every call on one thread, one at a time, so the log is
    already one total order that agrees with every lock's recorded
    acquisition order: replay feeds the calls to one module instance in
    log order, which is the recorded interleaving, and is deterministic.

    The log is {!Record}'s one format: {!Record.magic}, then one frame per
    entry, then a trailer frame.  Entry [seq] numbers are 1-based frame
    indices, so they name positions in the log. *)

type entry =
  | Call of { seq : int; tid : int; call : Message.call; reply : Message.reply }
  | Lock_event of { seq : int; tid : int; op : Lock.op; lock_id : int }

type report = {
  total_calls : int;
  threads : int;  (** recorded kernel threads (distinct tids) that made calls *)
  mismatches : (int * string) list;
      (** (log position, description) for every reply diverging from the
          recording, in log order; a call that raised is a mismatch whose
          description names the exception.  Later mismatches may follow
          from the first, since the module's state has diverged. *)
  wall_seconds : float;
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
    diverging prefix, [seq]/[detail] name the first divergent call (so
    [failing_prefix = seq]), and [context] is a window of log entries
    around it. *)
type divergence = { failing_prefix : int; seq : int; detail : string; context : entry list }

(** Header/trailer inspection only — entries are scanned, not decoded. *)
val info : string -> info

(** [run (module S) ~log] replays the log against a fresh instance of [S]
    built with an inert context of [1 +] the largest cpu id the log names
    (in its tids, or in its calls' cpu fields and allowed masks), whose
    lock owner nobody observes.  Raises {!Incomplete_log}, before anything runs, if
    the trailer records dropped events, unless [allow_drops] is set. *)
val run : ?allow_drops:bool -> (module Sched_trait.S) -> log:string -> report

(** [bisect (module S) ~log] finds the minimal failing prefix of a
    diverging log: one replay (without the drop check), whose first
    mismatch ends it, reported with [window] entries of context either
    side (default 3).  [None] if the full log replays clean. *)
val bisect : ?window:int -> (module Sched_trait.S) -> log:string -> divergence option

(** One-line rendering of an entry, for context printing. *)
val entry_line : entry -> string

(** One-line verdict; on mismatch, also the first few divergences with
    their log positions. *)
val pp_report : Format.formatter -> report -> unit

(** For the tests only. *)
module Private : sig
  (** Parse a record log.  Raises {!Malformed_log} on corrupt input; a log
      that simply ends mid-frame yields the complete frames (see {!info}). *)
  val parse : string -> entry list

  (** {!parse} plus the header/trailer {!info} from the same pass. *)
  val parse_full : string -> entry list * info
end
