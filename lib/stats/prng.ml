(* The four xoshiro256** state words live in one 32-byte buffer rather than
   four mutable [int64] fields: a record field store boxes its [int64]
   (this is not a flambda build), while [Bytes.get/set_int64_le] reads and
   writes raw words, so with [next64] and [rotl] inlined a draw keeps every
   intermediate unboxed and allocates nothing. *)
type t = Bytes.t

let get t i = Bytes.get_int64_le t (i * 8) [@@inline]

let set t i v = Bytes.set_int64_le t (i * 8) v [@@inline]

(* splitmix64: used to expand the seed into xoshiro state, and to derive
   independent streams in [split]. *)
let splitmix_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed64 seed64 =
  let state = ref seed64 in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set t i (splitmix_next state)
  done;
  t

let create ~seed = of_seed64 (Int64.of_int seed)

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))
[@@inline]

(* xoshiro256** *)
let next64 t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set t 1 (logxor s1 s2);
  set t 0 (logxor s0 s3);
  set t 2 (logxor s2 (shift_left s1 17));
  set t 3 (rotl s3 45);
  result
[@@inline]

let split t = of_seed64 (next64 t)

let next t = Int64.to_int (Int64.shift_right_logical (next64 t) 2)

(* 53 high-quality bits, as recommended for doubles *)
let bits53 t = Int64.to_int (Int64.shift_right_logical (next64 t) 11)

let float t = float_of_int (bits53 t) *. 0x1p-53

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int";
  next t mod bound
