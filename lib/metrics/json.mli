(** A minimal JSON tree: enough for the benchmark trajectory files and the
    metrics summary exporter, with a parser for [bench regress] to read
    committed baselines back.  No external dependency, by design — the
    container bakes in only the base toolchain. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string

(** [escape s] is [s] escaped for the inside of a JSON string literal (no
    surrounding quotes): double quote, backslash, newline, tab and carriage
    return get their two-character escapes, other control bytes become
    [u00XX] escapes, and every other byte is copied.  [s] itself, not a
    copy, when nothing in it needs escaping.  The one JSON escape of the
    tree: the trace and anatomy exporters write through it too. *)
val escape : string -> string

(** Strict parse of a complete document; [Error msg] carries an offset. *)
val parse : string -> (t, string) result

val parse_file : path:string -> (t, string) result

val save : path:string -> t -> unit

(** Accessors; lookups on the wrong constructor return [None]. *)

val member : string -> t -> t option

val to_float : t -> float option

val to_int : t -> int option

val to_str : t -> string option

val to_list : t -> t list option
