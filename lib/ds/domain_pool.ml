(* The claim word: the batch's generation above [idx_bits], the next task
   index below.  Generations wrap at [gen_mask], which keeps the word a
   positive int. *)
let idx_bits = 30

let idx_mask = (1 lsl idx_bits) - 1

let gen_mask = (1 lsl 32) - 1

type t = {
  size : int;
  lock : Mutex.t;
  work : Condition.t;  (* a new batch was published (or shutdown) *)
  idle : Condition.t;  (* the current batch's last task finished *)
  claim : int Atomic.t;
  mutable tasks : (unit -> unit) array;  (* the current batch *)
  mutable generation : int;
  mutable remaining : int;
  mutable stop : bool;
  mutable first_exn : (exn * Printexc.raw_backtrace) option;
  mutable workers : unit Domain.t list;
}

let keep_exn t e =
  let bt = Printexc.get_raw_backtrace () in
  Mutex.lock t.lock;
  if t.first_exn = None then t.first_exn <- Some (e, bt);
  Mutex.unlock t.lock

(* Claim tasks of batch [gen] until it runs dry or a later batch replaced
   it.  A claim is a compare-and-set of the whole word, so a straggler
   still holding batch [gen] fails against the next batch's word instead
   of taking one of its indices.  Toplevel, not a local loop, so a drain
   allocates no closure. *)
let rec claim t gen tasks done_count =
  let c = Atomic.get t.claim in
  let i = c land idx_mask in
  if c lsr idx_bits <> gen || i >= Array.length tasks then done_count
  else if Atomic.compare_and_set t.claim c (c + 1) then begin
    (try tasks.(i) () with e -> keep_exn t e);
    claim t gen tasks (done_count + 1)
  end
  else claim t gen tasks done_count

(* Drain batch [gen] from the calling domain, then settle its completion
   count in one critical section.  The first exception is kept and
   re-raised by [run] after the barrier; later tasks still execute, so a
   failing batch finishes in a deterministic state. *)
let drain t gen tasks =
  let k = claim t gen tasks 0 in
  if k > 0 then begin
    Mutex.lock t.lock;
    t.remaining <- t.remaining - k;
    if t.remaining = 0 then Condition.broadcast t.idle;
    Mutex.unlock t.lock
  end

(* Workers park on [work] between batches. *)
let worker_loop t =
  let rec loop last_gen =
    Mutex.lock t.lock;
    while (not t.stop) && t.generation = last_gen do
      Condition.wait t.work t.lock
    done;
    if t.stop then Mutex.unlock t.lock
    else begin
      let gen = t.generation and tasks = t.tasks in
      Mutex.unlock t.lock;
      drain t gen tasks;
      loop gen
    end
  in
  loop 0

let create ?(domains = 1) () =
  let t =
    {
      size = max 1 domains;
      lock = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      claim = Atomic.make 0;
      tasks = [||];
      generation = 0;
      remaining = 0;
      stop = false;
      first_exn = None;
      workers = [];
    }
  in
  if t.size > 1 then t.workers <- List.init (t.size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let size t = t.size

let run t tasks =
  let n = Array.length tasks in
  if n = 0 then ()
  else if t.size <= 1 then
    (* no pool: run in place, exceptions propagate *)
    Array.iter (fun task -> task ()) tasks
  else begin
    if t.stop then invalid_arg "Domain_pool.run: pool is shut down";
    if n > idx_mask then invalid_arg "Domain_pool.run: batch too large";
    Mutex.lock t.lock;
    let gen = (t.generation + 1) land gen_mask in
    t.first_exn <- None;
    t.tasks <- tasks;
    t.remaining <- n;
    t.generation <- gen;
    Atomic.set t.claim (gen lsl idx_bits);
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    (* the calling domain participates instead of idling at the barrier *)
    drain t gen tasks;
    Mutex.lock t.lock;
    while t.remaining > 0 do
      Condition.wait t.idle t.lock
    done;
    t.tasks <- [||];
    let exn = t.first_exn in
    t.first_exn <- None;
    Mutex.unlock t.lock;
    match exn with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let map t xs ~f =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    run t (Array.init n (fun i () -> out.(i) <- Some (f xs.(i))));
    Array.map (function Some v -> v | None -> invalid_arg "Domain_pool.map: task skipped") out
  end

let map_list t xs ~f = Array.to_list (map t (Array.of_list xs) ~f)

let shutdown t =
  Mutex.lock t.lock;
  let already = t.stop in
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.lock;
  if not already then begin
    List.iter Domain.join t.workers;
    t.workers <- []
  end
