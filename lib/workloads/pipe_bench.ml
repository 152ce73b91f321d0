module T = Kernsim.Task
module M = Kernsim.Machine

type result = {
  us_per_wakeup : float;
  wakeups : int;
  elapsed : Kernsim.Time.ns;
  completed : bool;
}

(* Per-message application work: the read/write syscall pair plus copying
   the token through the pipe. *)
let work = 1_650

let run (b : Setup.built) ?(same_core = false) ?(messages = 50_000) () =
  let m = b.machine in
  let ch_ab = M.new_chan m and ch_ba = M.new_chan m in
  let affinity = if same_core then Some [ 0 ] else None in
  let finished = ref 0 in
  let observe = Setup.request_observer b in
  (* sender: work, signal the peer, wait for the reply *)
  let peer ~send ~recv ~first =
    let n = ref 0 and st = ref (if first then `Work else `Recv0) in
    (* round-trip stamp: taken when this peer signals, closed when the
       reply wakes it back up *)
    let t0 = ref (-1) in
    fun (ctx : T.ctx) ->
      match !st with
      | `Recv0 ->
        st := `Work;
        T.block recv
      | `Work ->
        st := `Send;
        T.compute work
      | `Send ->
        st := `Recv;
        t0 := ctx.T.now;
        T.wake send
      | `Recv ->
        if !t0 >= 0 then observe (ctx.T.now - !t0);
        t0 := -1;
        incr n;
        if !n >= messages then begin
          incr finished;
          T.exit
        end
        else begin
          st := `Work;
          T.block recv
        end
  in
  let spec name beh =
    { (T.default_spec ~name beh) with T.policy = b.policy; affinity; group = "pipe" }
  in
  ignore (M.spawn m (spec "pipe-a" (peer ~send:ch_ab ~recv:ch_ba ~first:true)));
  ignore (M.spawn m (spec "pipe-b" (peer ~send:ch_ba ~recv:ch_ab ~first:false)));
  let started = M.now m in
  (* generous budget: 100 us per message *)
  M.run_for m (messages * Kernsim.Time.us 100);
  let elapsed = M.now m - started in
  let wakeups = 2 * messages in
  (* if we hit the budget, report the effective elapsed anyway *)
  let completed = !finished = 2 in
  let elapsed =
    if completed then
      (* find the real end: last task exit *)
      List.fold_left
        (fun acc (task : T.t) ->
          match task.exited_at with Some t -> max acc (t - started) | None -> acc)
        0 (M.tasks m)
    else elapsed
  in
  { us_per_wakeup = Kernsim.Time.to_us elapsed /. float_of_int wakeups; wakeups; elapsed; completed }

let user_switch_cost = 90 (* Arachne user-level context switch, ~100ns *)

let cacheline_bounce = 110 (* cross-core line transfer when threads spread *)

let run_userlevel (b : Setup.built) ?(same_core = true) ?(messages = 50_000) () =
  let m = b.machine in
  (* both user threads live in one kernel task (same-core) or two busy
     kernel tasks (spread); each message costs only the user-level switch,
     plus a cache-line bounce when crossing cores *)
  let total = ref 0
  and per_msg = user_switch_cost + if same_core then 0 else cacheline_bounce in
  let beh =
    fun (_ : T.ctx) ->
      if !total >= 2 * messages then T.exit
      else begin
        incr total;
        T.compute per_msg
      end
  in
  let spec = { (T.default_spec ~name:"arachne-user" beh) with T.policy = b.policy } in
  ignore (M.spawn m spec);
  let started = M.now m in
  M.run_for m (messages * Kernsim.Time.us 50);
  let exit_time =
    List.fold_left
      (fun acc (task : T.t) ->
        match task.exited_at with Some t -> max acc (t - started) | None -> acc)
      0 (M.tasks m)
  in
  let elapsed = if exit_time > 0 then exit_time else M.now m - started in
  {
    us_per_wakeup = Kernsim.Time.to_us elapsed /. float_of_int (2 * messages);
    wakeups = 2 * messages;
    elapsed;
    completed = true;
  }
