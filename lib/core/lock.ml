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

type owner = { mutable next_id : int; observe : (op -> lock_id:int -> unit) option }

let owner observe = { next_id = 0; observe }

(* Each lock carries its owner's observer, so a lock operation reads one
   field. *)
type t = { lock_id : int; observe : (op -> lock_id:int -> unit) option }

let create owner =
  let lock_id = owner.next_id in
  owner.next_id <- lock_id + 1;
  (match owner.observe with Some f -> f Create ~lock_id | None -> ());
  { lock_id; observe = owner.observe }

(* [f] runs with no closure built, between the observer's acquire and
   release when there is one. *)
let locked t f s a b c d =
  match t.observe with
  | None -> f s a b c d
  | Some observe -> (
    observe Acquire ~lock_id:t.lock_id;
    match f s a b c d with
    | r ->
      observe Release ~lock_id:t.lock_id;
      r
    | exception e ->
      observe Release ~lock_id:t.lock_id;
      raise e)

let run f () () () () = f ()

let with_lock t f = locked t run f () () () ()

let set_trace_tap (_ : (op -> lock_id:int -> unit) option) = ()

module Private = struct
  let id t = t.lock_id
end
