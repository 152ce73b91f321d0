(** The record half of Enoki's record-and-replay (§3.4).

    Messages cannot be written to a file from scheduler context (the kernel
    may hold interrupts off), so libEnoki pushes events onto a ring buffer
    shared with a userspace record task, which drains them asynchronously.
    The tap path stores typed events — encoding happens at drain time, off
    the scheduler's critical path.  If the ring overruns, events are
    dropped and counted, and the count is written into the log trailer so
    replay can refuse (or be told to tolerate) an incomplete recording.

    The log is [magic], then one length-prefixed frame per event, then a
    trailer frame carrying (events, dropped).  Fields are varints and
    length-prefixed strings ({!Wire}), so free-form payloads round-trip
    byte-exactly — no escaping, no delimiter corruption.

    Sinks: {!create} accumulates drained bytes in memory; {!create_file}
    streams them to a file as they drain, keeping the recorder's live heap
    bounded for arbitrarily long runs. *)

type t

(** Log header; the final byte is the format version. *)
val magic : string

(** In-memory recorder (default ring capacity 65536 events). *)
val create : ?capacity:int -> unit -> t

(** Streaming recorder: drained events are written to [path] incrementally.
    Call {!close} to flush the ring and write the trailer. *)
val create_file : path:string -> ?capacity:int -> unit -> t

(** Push one invocation record from kernel context. *)
val tap_call : t -> tid:int -> Message.call -> Message.reply -> unit

(** Push one lock event from kernel context. *)
val tap_lock : t -> Lock.event -> unit

(** One step of the userspace record task: encode everything queued in the
    ring and move it to the sink.  No-op after {!close}. *)
val drain : t -> unit

(** Events pushed but lost to ring overrun. *)
val dropped : t -> int

(** Total events captured so far (drains the ring first, so events still
    queued are counted). *)
val length : t -> int

(** Drain remaining events and, for file-backed recorders, write the
    trailer and close the file.  Idempotent. *)
val close : t -> unit

(** The full log including header and trailer (drains first).  In-memory
    recorders only; raises [Invalid_argument] for file-backed ones — close
    those and use {!load_file}. *)
val contents : t -> string

(** Write {!contents} to [path] (in-memory recorders only). *)
val save : t -> path:string -> unit

val load_file : path:string -> string
