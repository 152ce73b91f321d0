(* One packed event per [slot_bytes]-byte slot of a single [Bytes]:

     word 0   ts
     word 1   cpu lsl 8 lor tag index
     word 2-4 a, b, c

   read and written as native 64-bit words.  The buffer comes from
   [Bytes.create] and is never filled: a large one is a fresh malloc'd
   block, so its pages become resident only as slots on them are written.
   A slot that was never written holds garbage, so callers read only the
   slots they wrote.  Cold kinds keep their boxed payload in a side column,
   allocated on the first cold write because most buffers never see one. *)

external get64 : bytes -> int -> int64 = "%caml_bytes_get64"
external set64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64"

let slot_bytes = 40

let max_capacity = Sys.max_string_length / slot_bytes

type t = { buf : Bytes.t; capacity : int; mutable cold : Event.kind array }

let create capacity =
  if capacity <= 0 || capacity > max_capacity then
    invalid_arg (Printf.sprintf "Slots.create: capacity %d outside [1, %d]" capacity max_capacity);
  { buf = Bytes.create (slot_bytes * capacity); capacity; cold = [||] }

let capacity t = t.capacity

let word b i k = Int64.to_int (get64 b ((i * slot_bytes) + (k * 8)))

let set_word b i k x = set64 b ((i * slot_bytes) + (k * 8)) (Int64.of_int x)

let set t i ~ts ~cpu tag a b c kind =
  let buf = t.buf in
  set_word buf i 0 ts;
  set_word buf i 1 ((cpu lsl 8) lor Event.tag_index tag);
  set_word buf i 2 a;
  set_word buf i 3 b;
  set_word buf i 4 c;
  match tag with
  | Event.T_cold ->
    if Array.length t.cold = 0 then t.cold <- Array.make t.capacity Event.Tick;
    t.cold.(i) <- kind
  | _ -> ()

let ts t i = word t.buf i 0

let get t i =
  let buf = t.buf in
  let w = word buf i 1 in
  let kind =
    match Event.tag_of_index (w land 0xff) with
    | Event.T_cold -> t.cold.(i)
    | tag -> Event.unpack tag (word buf i 2) (word buf i 3) (word buf i 4) Event.Tick
  in
  { Event.ts = word buf i 0; cpu = w asr 8; kind }

let take t i =
  let ev = get t i in
  if word t.buf i 1 land 0xff = Event.tag_index Event.T_cold then t.cold.(i) <- Event.Tick;
  ev
