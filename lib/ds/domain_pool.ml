type batch = { queue : (unit -> unit) Spmc_queue.t }

type t = {
  size : int;
  lock : Mutex.t;
  work : Condition.t;  (* a new batch was published (or shutdown) *)
  idle : Condition.t;  (* the current batch's last task finished *)
  mutable batch : batch option;
  mutable generation : int;
  mutable remaining : int;
  mutable stop : bool;
  mutable first_exn : (exn * Printexc.raw_backtrace) option;
  mutable allocated : float;
  mutable workers : unit Domain.t list;
}

(* Drain one batch from the calling domain: claim tasks off the SPMC queue
   until it runs dry, then settle the books (allocation + completion count)
   in one critical section.  The first exception is kept and re-raised by
   [run] after the barrier; later tasks still execute, so a failing batch
   finishes in a deterministic state. *)
let drain t (b : batch) =
  let a0 = Gc.allocated_bytes () in
  let rec claim done_count =
    match Spmc_queue.pop b.queue with
    | None -> done_count
    | Some task ->
      (try task ()
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock t.lock;
         if t.first_exn = None then t.first_exn <- Some (e, bt);
         Mutex.unlock t.lock);
      claim (done_count + 1)
  in
  let k = claim 0 in
  if k > 0 then begin
    let bytes = Gc.allocated_bytes () -. a0 in
    Mutex.lock t.lock;
    t.allocated <- t.allocated +. bytes;
    t.remaining <- t.remaining - k;
    if t.remaining = 0 then Condition.broadcast t.idle;
    Mutex.unlock t.lock
  end

(* Workers park on [work] between batches.  Each batch publishes a *fresh*
   queue, so a straggler still claiming from an old batch can never steal
   work from (or double-run work of) the next one. *)
let worker_loop t =
  let rec loop last_gen =
    Mutex.lock t.lock;
    while (not t.stop) && t.generation = last_gen do
      Condition.wait t.work t.lock
    done;
    if t.stop then Mutex.unlock t.lock
    else begin
      let gen = t.generation in
      let b = t.batch in
      Mutex.unlock t.lock;
      (match b with Some b -> drain t b | None -> ());
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
      batch = None;
      generation = 0;
      remaining = 0;
      stop = false;
      first_exn = None;
      allocated = 0.;
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
    let b = { queue = Spmc_queue.of_array tasks } in
    Mutex.lock t.lock;
    t.first_exn <- None;
    t.batch <- Some b;
    t.remaining <- n;
    t.generation <- t.generation + 1;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    (* the calling domain participates instead of idling at the barrier *)
    drain t b;
    Mutex.lock t.lock;
    while t.remaining > 0 do
      Condition.wait t.idle t.lock
    done;
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

let allocated_bytes t =
  Mutex.lock t.lock;
  let v = t.allocated in
  Mutex.unlock t.lock;
  v

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
