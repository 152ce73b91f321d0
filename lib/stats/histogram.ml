(* Log-linear buckets: 64 "orders" (one per bit position of the value), each
   split into [sub] linear sub-buckets.  Bucket index therefore encodes a
   floating-point-like (exponent, mantissa-prefix) pair. *)

let sub_bits = 5

let sub = 1 lsl sub_bits

type t = {
  counts : int array; (* 64 * sub *)
  mutable total : int;
  mutable min_v : int;
  mutable max_v : int;
  mutable sum : int; (* int, not float: a float field would box on every record *)
}

let n_buckets = 64 * sub

let create () =
  { counts = Array.make n_buckets 0; total = 0; min_v = max_int; max_v = 0; sum = 0 }

let bucket_of_value v =
  let v = if v < 1 then 1 else v in
  let order =
    (* position of the highest set bit, in six constant steps — this runs
       per metric record on the event hot path, where the obvious
       shift-until-one loop costs ~10 data-dependent iterations for
       ns-scale values *)
    let o = if v lsr 32 <> 0 then 32 else 0 in
    let x = v lsr o in
    let o = if x lsr 16 <> 0 then o + 16 else o in
    let x = v lsr o in
    let o = if x lsr 8 <> 0 then o + 8 else o in
    let x = v lsr o in
    let o = if x lsr 4 <> 0 then o + 4 else o in
    let x = v lsr o in
    let o = if x lsr 2 <> 0 then o + 2 else o in
    let x = v lsr o in
    if x lsr 1 <> 0 then o + 1 else o
  in
  if order < sub_bits then v
  else
    let shift = order - sub_bits in
    let sub_idx = (v lsr shift) - sub in
    ((order - sub_bits + 1) * sub) + sub_idx

(* Largest value mapping into bucket [i]; used to answer percentile
   queries with an upper bound of the matched bucket. *)
let bucket_upper i =
  if i < sub then i
  else
    let order = (i / sub) + sub_bits - 1 in
    let sub_idx = i mod sub in
    let shift = order - sub_bits in
    (((sub + sub_idx) lsl shift) + (1 lsl shift)) - 1

let record_n t v n =
  if n > 0 then begin
    let v' = if v < 1 then 1 else v in
    let b = bucket_of_value v' in
    t.counts.(b) <- t.counts.(b) + n;
    t.total <- t.total + n;
    if v' < t.min_v then t.min_v <- v';
    if v' > t.max_v then t.max_v <- v';
    t.sum <- t.sum + (v' * n)
  end

let record t v = record_n t v 1

let count t = t.total

let min t = if t.total = 0 then 0 else t.min_v

let max t = t.max_v

let mean t = if t.total = 0 then 0.0 else float_of_int t.sum /. float_of_int t.total

let percentile t p =
  if t.total = 0 then 0
  else begin
    let p = Float.min 100.0 (Float.max 0.0 p) in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.total)) in
    let rank = Stdlib.max 1 rank in
    let rec go i seen =
      if i >= n_buckets then t.max_v
      else
        let seen = seen + t.counts.(i) in
        if seen >= rank then Stdlib.min (bucket_upper i) t.max_v else go (i + 1) seen
    in
    go 0 0
  end

(* Non-empty buckets as (inclusive upper bound, count), ascending.  The
   shard aggregation and the CSV exporter both consume this shape. *)
let to_buckets t =
  let acc = ref [] in
  for i = n_buckets - 1 downto 0 do
    if t.counts.(i) > 0 then acc := (bucket_upper i, t.counts.(i)) :: !acc
  done;
  !acc

let clear t =
  Array.fill t.counts 0 n_buckets 0;
  t.total <- 0;
  t.min_v <- max_int;
  t.max_v <- 0;
  t.sum <- 0
