type 'a t = {
  compare : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable len : int;
  on_move : ('a -> int -> unit) option;
}

let create ?on_move ~compare () = { compare; data = [||]; len = 0; on_move }

let length t = t.len

let is_empty t = t.len = 0

let grow t x =
  let cap = Array.length t.data in
  if t.len = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let ndata = Array.make ncap x in
    Array.blit t.data 0 ndata 0 t.len;
    t.data <- ndata
  end

(* Every position change goes through [set] so callers tracking element
   indices (for remove_at-based cancellation) stay in sync. *)
let set t i x =
  t.data.(i) <- x;
  match t.on_move with None -> () | Some f -> f x i

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.compare t.data.(i) t.data.(parent) < 0 then begin
      let tmp = t.data.(i) in
      set t i t.data.(parent);
      set t parent tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && t.compare t.data.(l) t.data.(!smallest) < 0 then smallest := l;
  if r < t.len && t.compare t.data.(r) t.data.(!smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    let tmp = t.data.(i) in
    set t i t.data.(!smallest);
    set t !smallest tmp;
    sift_down t !smallest
  end

let add t x =
  grow t x;
  set t t.len x;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let peek t = if t.len = 0 then None else Some t.data.(0)

let pop t =
  if t.len = 0 then None
  else begin
    let top = t.data.(0) in
    t.len <- t.len - 1;
    if t.len > 0 then begin
      set t 0 t.data.(t.len);
      sift_down t 0
    end;
    Some top
  end

let remove_at t i =
  if i < 0 || i >= t.len then invalid_arg "Heap.remove_at";
  let removed = t.data.(i) in
  let last = t.len - 1 in
  t.len <- last;
  if i <> last then begin
    let x = t.data.(last) in
    set t i x;
    (* the replacement may need to move either way relative to [i] *)
    if i > 0 && t.compare x t.data.((i - 1) / 2) < 0 then sift_up t i else sift_down t i
  end;
  removed

let remove_if t f =
  let kept = List.filter (fun x -> not (f x)) (Array.to_list (Array.sub t.data 0 t.len)) in
  t.len <- 0;
  List.iter (add t) kept
