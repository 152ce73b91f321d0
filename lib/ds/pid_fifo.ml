(* An intrusive doubly linked list over entry slots kept in int arrays,
   with free slots chained through [next].  A pid normally has at most one
   entry, and then [at.(pid)] names it, so finding or removing a pid is
   O(1); a pid queued twice has [at = -1] and falls back to a scan from the
   head for its oldest entry. *)

type 'a t = {
  dummy : 'a;
  mutable pid : int array;  (* entry -> pid *)
  mutable value : 'a array;  (* entry -> value; [dummy] when free *)
  mutable next : int array;  (* -1 = none; chains the free list too *)
  mutable prev : int array;
  mutable head : int;
  mutable tail : int;
  mutable free : int;
  mutable len : int;
  mutable count : int array;  (* pid -> entries queued *)
  mutable at : int array;  (* pid -> its entry when it has exactly one, else -1 *)
}

let create ~dummy =
  {
    dummy;
    pid = [||];
    value = [||];
    next = [||];
    prev = [||];
    head = -1;
    tail = -1;
    free = -1;
    len = 0;
    count = [||];
    at = [||];
  }

let length q = q.len

let is_empty q = q.len = 0

let capacity q = Array.length q.pid

let head q = q.head

let tail q = q.tail

let next q e = q.next.(e)

let pid q e = q.pid.(e)

let value q e = q.value.(e)

let set_value q e v = q.value.(e) <- v

let tracked q pid = pid >= 0 && pid < Array.length q.count

let count q pid = if tracked q pid then q.count.(pid) else 0

let track q pid =
  let len = Array.length q.count in
  if pid >= len then begin
    let n = max (pid + 1) (max 16 (2 * len)) in
    q.count <- Column.grow q.count n 0;
    q.at <- Column.grow q.at n (-1)
  end

(* a free entry slot, doubling the pool when none is left *)
let alloc q =
  if q.free < 0 then begin
    let len = Array.length q.pid in
    let n = max 16 (2 * len) in
    q.pid <- Column.grow q.pid n (-1);
    q.value <- Column.grow q.value n q.dummy;
    q.next <- Column.grow q.next n (-1);
    q.prev <- Column.grow q.prev n (-1);
    for e = n - 1 downto len do
      q.next.(e) <- q.free;
      q.free <- e
    done
  end;
  let e = q.free in
  q.free <- q.next.(e);
  e

let fill q e pid v =
  q.pid.(e) <- pid;
  q.value.(e) <- v;
  q.len <- q.len + 1;
  if pid >= 0 then begin
    track q pid;
    q.count.(pid) <- q.count.(pid) + 1;
    q.at.(pid) <- (if q.count.(pid) = 1 then e else -1)
  end

let push_back q pid v =
  let e = alloc q in
  fill q e pid v;
  q.next.(e) <- -1;
  q.prev.(e) <- q.tail;
  if q.tail >= 0 then q.next.(q.tail) <- e else q.head <- e;
  q.tail <- e

let push_front q pid v =
  let e = alloc q in
  fill q e pid v;
  q.prev.(e) <- -1;
  q.next.(e) <- q.head;
  if q.head >= 0 then q.prev.(q.head) <- e else q.tail <- e;
  q.head <- e

let rec scan_pid q pid e = if e < 0 || q.pid.(e) = pid then e else scan_pid q pid q.next.(e)

let find q pid =
  if pid < 0 then scan_pid q pid q.head
  else if count q pid = 0 then -1
  else if q.at.(pid) >= 0 then q.at.(pid)
  else scan_pid q pid q.head

let take q e =
  let n = q.next.(e) and p = q.prev.(e) in
  if p >= 0 then q.next.(p) <- n else q.head <- n;
  if n >= 0 then q.prev.(n) <- p else q.tail <- p;
  let pid = q.pid.(e) and v = q.value.(e) in
  if tracked q pid then begin
    let c = q.count.(pid) - 1 in
    q.count.(pid) <- c;
    (* a pid left with one entry gets its O(1) slot back *)
    q.at.(pid) <- (if c = 1 then scan_pid q pid q.head else -1)
  end;
  q.value.(e) <- q.dummy;
  q.next.(e) <- q.free;
  q.free <- e;
  q.len <- q.len - 1;
  v

let remove q pid =
  let e = find q pid in
  if e < 0 then q.dummy else take q e

let pop_front q = if q.head < 0 then q.dummy else take q q.head
