type t = { mutable slots : int array; mutable len : int }

let create () = { slots = [||]; len = 0 }

let length t = t.len

let top t = if t.len = 0 then -1 else Array.unsafe_get t.slots 0

let nth t i =
  if i < 0 || i >= t.len then invalid_arg "Pid_heap.nth";
  Array.unsafe_get t.slots i

(* strict (key, tie, index) order; indices are unique so this is total.
   The tie column is read only when two keys are equal.  The columns are
   annotated: left polymorphic, every comparison below would be a call to
   the generic compare. *)
let lt (key : int array) (tie : int array) p q =
  let kp = key.(p) and kq = key.(q) in
  kp < kq
  || kp = kq
     &&
     let tp = tie.(p) and tq = tie.(q) in
     tp < tq || (tp = tq && p < q)

(* Move [x] from hole [i] towards the root, then drop it in place. *)
let sift_up t ~key ~tie ~pos i x =
  let s = t.slots in
  let i = ref i in
  while !i > 0 && lt key tie x s.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    let parent = s.(p) in
    s.(!i) <- parent;
    pos.(parent) <- !i;
    i := p
  done;
  s.(!i) <- x;
  pos.(x) <- !i

(* Move [x] from hole [i] towards the leaves, then drop it in place. *)
let sift_down t ~key ~tie ~pos i x =
  let s = t.slots and n = t.len in
  let i = ref i and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let m = if r < n && lt key tie s.(r) s.(l) then r else l in
      let child = s.(m) in
      if lt key tie child x then begin
        s.(!i) <- child;
        pos.(child) <- !i;
        i := m
      end
      else continue := false
    end
  done;
  s.(!i) <- x;
  pos.(x) <- !i

let add t ~key ~tie ~pos x =
  if t.len = Array.length t.slots then begin
    let bigger = Array.make (max 8 (2 * t.len)) (-1) in
    Array.blit t.slots 0 bigger 0 t.len;
    t.slots <- bigger
  end;
  t.len <- t.len + 1;
  sift_up t ~key ~tie ~pos (t.len - 1) x

let remove t ~key ~tie ~pos x =
  let i = pos.(x) in
  if i >= 0 then begin
    pos.(x) <- -1;
    let last = t.len - 1 in
    t.len <- last;
    if i <> last then begin
      (* back-fill the hole with the last slot, then restore order in
         whichever direction the moved element needs *)
      let moved = t.slots.(last) in
      if i > 0 && lt key tie moved t.slots.((i - 1) / 2) then sift_up t ~key ~tie ~pos i moved
      else sift_down t ~key ~tie ~pos i moved
    end
  end
