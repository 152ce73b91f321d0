(* Varint-based binary primitives for the record log (§3.4).

   All integers travel as LEB128; signed values are zigzag-mapped first so
   small negatives (nice levels, R_int error codes) stay one byte.  Strings
   are length-prefixed raw bytes — no escaping, so payloads containing
   newlines, spaces or " => " can never corrupt the framing. *)

exception Truncated

(* LEB128 over the raw bit pattern: [lsr] is a logical shift, so this also
   terminates for a negative pattern (at most ceil(int_size/7) groups),
   which zigzag produces when |n| >= 2^(int_size-2). *)
let put_bits buf n =
  let rec go n =
    if n lsr 7 = 0 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let put_uint buf n =
  if n < 0 then invalid_arg "Wire.put_uint: negative";
  put_bits buf n

(* zigzag: 0 -> 0, -1 -> 1, 1 -> 2, -2 -> 3 ... *)
let put_int buf n = put_bits buf ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

let put_byte buf b = Buffer.add_char buf (Char.chr (b land 0xff))

let put_bool buf b = put_byte buf (if b then 1 else 0)

let put_str buf s =
  put_uint buf (String.length s);
  Buffer.add_string buf s

type cursor = { src : string; mutable pos : int }

let cursor ?(pos = 0) src = { src; pos }

let at_end c = c.pos >= String.length c.src

let get_byte c =
  if c.pos >= String.length c.src then raise Truncated;
  let b = Char.code c.src.[c.pos] in
  c.pos <- c.pos + 1;
  b

(* The rest of a varint whose bits below [shift] are in [acc]. *)
let rec get_uint_from c shift acc =
  let b = get_byte c in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else get_uint_from c (shift + 7) acc

(* Most fields (tids, cpus, pids, opcodes) fit in one byte, which is read
   here, [get_byte] written out, with no call and no closure: decoding a
   record log is mostly this function. *)
let get_uint c =
  if c.pos >= String.length c.src then raise Truncated;
  let b = Char.code (String.unsafe_get c.src c.pos) in
  c.pos <- c.pos + 1;
  if b land 0x80 = 0 then b else get_uint_from c 7 (b land 0x7f)

let get_int c =
  let n = get_uint c in
  (n lsr 1) lxor (-(n land 1))

let get_bool c = get_byte c <> 0

let get_str c =
  let len = get_uint c in
  if c.pos + len > String.length c.src then raise Truncated;
  let s = String.sub c.src c.pos len in
  c.pos <- c.pos + len;
  s
