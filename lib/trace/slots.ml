(* One packed event per [slot_bytes]-byte slot of a single [Bytes]:

     word 0   ts
     word 1   b lsl 32 lor cpu lsl 8 lor tag index
     word 2   a
     word 3   c

   read and written as native 64-bit words.  [b] is a pid or a cpu, and
   the cpu a ring's, so both fit in word 1 (b in 31 signed bits, the cpu
   in 24) in every trace the simulator writes; an event whose fields do
   not is stored as a cold one, its kind rebuilt by [unpack].  A cold
   slot's word 1 is [cpu lsl 8 lor tag index].  The buffer comes from
   [Bytes.create] and is never filled: a large one is a fresh malloc'd
   block, so its pages become resident only as slots on them are written.
   A slot that was never written holds garbage, so callers read only the
   slots they wrote.  Cold kinds keep their boxed payload in a side column,
   allocated on the first cold write because most buffers never see one.

   Writing a slot, decoding one, and scanning and draining a run of them
   are all in this module, so the drain decodes with [unpack] inlined
   into its loop. *)

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let slot_bytes = 32

let max_capacity = Sys.max_string_length / slot_bytes

type t = { buf : Bytes.t; capacity : int; mutable cold : Event.kind array }

let create capacity =
  if capacity <= 0 || capacity > max_capacity then
    invalid_arg (Printf.sprintf "Slots.create: capacity %d outside [1, %d]" capacity max_capacity);
  { buf = Bytes.create (slot_bytes * capacity); capacity; cold = [||] }

let capacity t = t.capacity

(* One check per slot access; the word reads and writes are then
   unchecked. *)
let[@inline] check t i = if i < 0 || i >= t.capacity then invalid_arg "Slots: index out of bounds"

let[@inline] word b o = Int64.to_int (get64u b o)

let[@inline] set_word b o x = set64u b o (Int64.of_int x)

let ts t i =
  check t i;
  word t.buf (i * slot_bytes)

let set_cold t buf o i cpu kind =
  set_word buf (o + 8) ((cpu lsl 8) lor Event.tag_index T_cold);
  if Array.length t.cold = 0 then t.cold <- Array.make t.capacity Event.Tick;
  t.cold.(i) <- kind

(* ---------- decoding ---------- *)

(* Shared values, so decoding the most frequent packed kinds allocates
   nothing: one per crossing kind, *)
let msg_calls = Array.map (fun name -> Event.Msg_call { name }) Event.call_names

(* and one per lock id below 256, room for a lock per cpu on the largest
   simulated machine *)
let lock_acquires = Array.init 256 (fun lock_id -> Event.Lock_acquire { lock_id })

let lock_releases = Array.init 256 (fun lock_id -> Event.Lock_release { lock_id })

(* pid fields encode "no task" as -1 (simulator pids are never negative) *)
let pid_opt p = if p < 0 then None else Some p

let[@inline] unpack (tag : Event.tag) a b c cold : Event.kind =
  match tag with
  | T_switch -> Sched_switch { prev = pid_opt a; next = pid_opt b }
  | T_wakeup -> Wakeup { pid = a; waker_cpu = b; affinity = None }
  | T_dispatch -> Dispatch { pid = a }
  | T_preempt -> Preempt { pid = a }
  | T_yield -> Yield { pid = a }
  | T_block -> Block { pid = a }
  | T_exit -> Exit { pid = a }
  | T_migrate -> Migrate { pid = a; from_cpu = b; to_cpu = c }
  | T_tick -> Tick
  | T_idle -> Idle
  | T_lock_acquire ->
    if a >= 0 && a < Array.length lock_acquires then Array.unsafe_get lock_acquires a
    else Lock_acquire { lock_id = a }
  | T_lock_release ->
    if a >= 0 && a < Array.length lock_releases then Array.unsafe_get lock_releases a
    else Lock_release { lock_id = a }
  | T_msg_call -> msg_calls.(a)
  | T_dsq_insert -> Dsq_insert { dsq = Event.dsq_name a; pid = b }
  | T_dsq_consume -> Dsq_consume { dsq = Event.dsq_name a; pid = b; wait = c }
  | T_cold -> cold

(* word 1 is an OCaml int: 31 bits above the cpu's 24 and the tag's 8 *)
let min_b = -(1 lsl 30) and max_b = (1 lsl 30) - 1 and max_cpu = (1 lsl 24) - 1

let set t i ~ts ~cpu tag a b c kind =
  check t i;
  let buf = t.buf and o = i * slot_bytes in
  set_word buf o ts;
  match (tag : Event.tag) with
  | T_cold -> set_cold t buf o i cpu kind
  | _ ->
    if b >= min_b && b <= max_b && cpu >= 0 && cpu <= max_cpu then begin
      set_word buf (o + 8) ((b lsl 32) lor (cpu lsl 8) lor Event.tag_index tag);
      set_word buf (o + 16) a;
      set_word buf (o + 24) c
    end
    else set_cold t buf o i cpu (unpack tag a b c kind)

(* The event in written slot [i]; [consume] releases a cold payload from
   the side column.  Inlined with [unpack], so a drained slot is decoded
   in place: one read of its tag word, one match. *)
let[@inline] decode t i ~consume =
  let buf = t.buf and o = i * slot_bytes in
  let w = word buf (o + 8) in
  match Event.tags.(w land 0xff) with
  | T_cold ->
    let kind = t.cold.(i) in
    if consume then t.cold.(i) <- Event.Tick;
    { Event.ts = word buf o; cpu = w asr 8; kind }
  | tag ->
    let kind = unpack tag (word buf (o + 16)) (w asr 32) (word buf (o + 24)) Event.Tick in
    { Event.ts = word buf o; cpu = (w lsr 8) land max_cpu; kind }

let take t i =
  check t i;
  decode t i ~consume:true

let get t i =
  check t i;
  decode t i ~consume:false

(* ---------- runs, newest first ---------- *)

let[@inline] before t i = if i = 0 then t.capacity - 1 else i - 1

(* the loops are top-level functions: a local one would be a closure
   allocated per run *)
let rec count_from t i k n min_ts =
  if k < n && word t.buf (i * slot_bytes) >= min_ts then count_from t (before t i) (k + 1) n min_ts
  else k

let count_back t i n ~min_ts =
  check t i;
  if n > t.capacity then invalid_arg "Slots.count_back: more slots than the capacity";
  count_from t i 0 n min_ts

let rec take_from t i k acc =
  if k = 0 then acc else take_from t (before t i) (k - 1) (decode t i ~consume:true :: acc)

let take_back t i n acc =
  check t i;
  if n > t.capacity then invalid_arg "Slots.take_back: more slots than the capacity";
  take_from t i n acc

module Private = struct
  let slot_bytes = slot_bytes
end
