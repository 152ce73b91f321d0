(** Serialisation registry for scheduler-defined hints.

    Hints are an extensible variant ({!Kernsim.Task.hint}) so each
    scheduler can define its own message shapes (§3.3).  Record/replay
    needs to write them to the log, so a scheduler that uses hints
    registers a codec for its constructors.  Unregistered hints are
    recorded as {!Opaque} strings. *)

(** Fallback constructor used when decoding a hint with no codec. *)
type Kernsim.Task.hint += Opaque of string

(** [register ~name ~encode ~decode] adds a codec.  [encode] returns [None]
    for constructors it does not own; [decode] receives the payload that
    [encode] produced. *)
val register :
  name:string ->
  encode:(Kernsim.Task.hint -> string option) ->
  decode:(string -> Kernsim.Task.hint) ->
  unit

(** [(codec name, raw payload)]: the pair the record log stores
    length-prefixed, so arbitrary payload bytes round-trip unescaped.
    Always succeeds; hints no codec claims become ["opaque"] payloads. *)
val encode_parts : Kernsim.Task.hint -> string * string

(** Inverse of {!encode_parts}; unknown codec names decode to {!Opaque}. *)
val decode_parts : name:string -> payload:string -> Kernsim.Task.hint
