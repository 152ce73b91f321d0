type 'a t = {
  buf : 'a option array;
  mutable head : int; (* next slot to pop *)
  mutable len : int;
  mutable dropped : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring_buffer.create";
  { buf = Array.make capacity None; head = 0; len = 0; dropped = 0 }

let push t x =
  if t.len = Array.length t.buf then begin
    t.dropped <- t.dropped + 1;
    false
  end
  else begin
    let tail = (t.head + t.len) mod Array.length t.buf in
    t.buf.(tail) <- Some x;
    t.len <- t.len + 1;
    true
  end

let pop t =
  if t.len = 0 then None
  else begin
    let x = t.buf.(t.head) in
    t.buf.(t.head) <- None;
    t.head <- (t.head + 1) mod Array.length t.buf;
    t.len <- t.len - 1;
    x
  end

let dropped t = t.dropped

let drain t =
  let rec go acc = match pop t with None -> List.rev acc | Some x -> go (x :: acc) in
  go []
