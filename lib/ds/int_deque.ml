(* A deque specialised to non-negative ints (pids, cpu ids).  The backing
   store is a plain [int array]: pushes never box the element, so hot
   queue traffic (machine channel waiters) is allocation-free in steady
   state.  -1 is reserved as the "empty" sentinel returned by the pop/peek
   operations. *)

type t = {
  mutable buf : int array;
  mutable head : int; (* index of the front element *)
  mutable len : int;
}

let create () = { buf = Array.make 8 (-1); head = 0; len = 0 }

let length t = t.len

let is_empty t = t.len = 0

let index t i = (t.head + i) land (Array.length t.buf - 1)

(* capacity is kept a power of two so [index] is a mask, not a division *)
let grow t =
  let cap = Array.length t.buf in
  if t.len = cap then begin
    let nbuf = Array.make (cap * 2) (-1) in
    for i = 0 to t.len - 1 do
      nbuf.(i) <- t.buf.(index t i)
    done;
    t.buf <- nbuf;
    t.head <- 0
  end

let push_back t x =
  if x < 0 then invalid_arg "Int_deque.push_back: negative element";
  grow t;
  t.buf.(index t t.len) <- x;
  t.len <- t.len + 1

let push_front t x =
  if x < 0 then invalid_arg "Int_deque.push_front: negative element";
  grow t;
  t.head <- (t.head - 1) land (Array.length t.buf - 1);
  t.buf.(t.head) <- x;
  t.len <- t.len + 1

(* -1 when empty *)
let pop_front t =
  if t.len = 0 then -1
  else begin
    let x = t.buf.(t.head) in
    t.head <- index t 1;
    t.len <- t.len - 1;
    x
  end

let pop_back t =
  if t.len = 0 then -1
  else begin
    t.len <- t.len - 1;
    t.buf.(index t t.len)
  end

let peek_front t = if t.len = 0 then -1 else t.buf.(t.head)

let peek_back t = if t.len = 0 then -1 else t.buf.(index t (t.len - 1))

let iter f t =
  for i = 0 to t.len - 1 do
    f t.buf.(index t i)
  done

let clear t =
  t.head <- 0;
  t.len <- 0
