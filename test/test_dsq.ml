(* Tests for lib/dsq: the dispatch-queue structure itself (FIFO stability,
   vtime ordering, silent transfer primitives), cross-policy upgrade
   rejection in the scx policy family built on Dsq_sched.Make, and the
   dual-queue promotion bound via the exposed pick_source decision.  The
   per-module checks every policy shares with the other modules
   (sanitizer, record/replay, upgrade to itself) are in test_checks. *)

module T = Kernsim.Task
module M = Kernsim.Machine
module Sched = Enoki.Schedulable

let check = Alcotest.check

let inert_queue ?mode name =
  Dsq.create ?mode (Enoki.Ctx.inert ()) name

let token ?(cpu = 0) pid = Sched.Private.create ~pid ~cpu ~gen:1

(* a queue's answer as an option: [Sched.none] is "nothing" *)
let opt tok = if Sched.is_none tok then None else Some tok

(* ---------- queue unit tests ---------- *)

let test_fifo_basic () =
  let q = inert_queue "t" in
  check Alcotest.bool "empty" true (Dsq.is_empty q);
  List.iter (fun pid -> Dsq.insert q ~vtime:0 (token pid)) [ 3; 1; 2 ];
  check Alcotest.int "length" 3 (Dsq.length q);
  check Alcotest.int "inserts counted" 3 (Dsq.Private.inserts q);
  let order = List.map (fun (e : Dsq.entry) -> e.Dsq.pid) (Dsq.Private.to_list q) in
  check Alcotest.(list int) "FIFO order" [ 3; 1; 2 ] order;
  check Alcotest.(option int) "peek is head" (Some 3) (Option.map Sched.pid (opt (Dsq.peek q)));
  let consumed = ref [] in
  let rec drain () =
    match opt (Dsq.consume q) with
    | Some tok ->
      consumed := Sched.pid tok :: !consumed;
      drain ()
    | None -> ()
  in
  drain ();
  check Alcotest.(list int) "consume order" [ 3; 1; 2 ] (List.rev !consumed);
  check Alcotest.int "consumes counted" 3 (Dsq.Private.consumes q)

let test_vtime_ordering () =
  let q = inert_queue ~mode:Dsq.Vtime "v" in
  List.iter
    (fun (pid, vt) -> Dsq.insert q ~vtime:vt (token pid))
    [ (1, 30); (2, 10); (3, 20); (4, 10) ];
  let order = List.map (fun (e : Dsq.entry) -> e.Dsq.pid) (Dsq.Private.to_list q) in
  (* min vtime first; the two vtime-10 entries keep insertion order *)
  check Alcotest.(list int) "vtime order, stable ties" [ 2; 4; 3; 1 ] order

let test_take_for_and_silent_moves () =
  let q = inert_queue "cpus" and local = inert_queue "local" in
  Dsq.insert q ~vtime:0 (token ~cpu:0 1);
  Dsq.insert q ~vtime:0 (token ~cpu:1 2);
  Dsq.insert q ~vtime:0 (token ~cpu:0 3);
  let stamp = (List.nth (Dsq.Private.to_list q) 1).Dsq.inserted_at in
  let inserts_before = Dsq.Private.inserts q in
  (* move_for skips entries licensed for other cpus *)
  check Alcotest.int "moved the cpu-1 entry" 2 (Dsq.move_for q ~cpu:1 ~into:local);
  check Alcotest.int "no more cpu-1 work" (-1) (Dsq.move_for q ~cpu:1 ~into:local);
  check Alcotest.int "moved entry keeps its stamp" stamp
    (List.hd (Dsq.Private.to_list local)).Dsq.inserted_at;
  (* a front requeue keeps the head's turn under its new token *)
  check Alcotest.(option int) "requeue hands back the old token" (Some 0)
    (Option.map Sched.cpu (opt (Dsq.requeue q ~pid:1 (token ~cpu:2 1) ~into:q ~front:true)));
  check Alcotest.(option (pair int int)) "the head keeps its turn" (Some (1, 2))
    (Option.map (fun tok -> (Sched.pid tok, Sched.cpu tok)) (opt (Dsq.peek q)));
  check Alcotest.(option int) "requeueing an absent pid" None
    (Option.map Sched.pid (opt (Dsq.requeue q ~pid:9 (token 9) ~into:q ~front:true)));
  check Alcotest.int "silent ops are not inserts" inserts_before (Dsq.Private.inserts q);
  (* remove by pid from the middle *)
  check Alcotest.(option int) "removed pid 3" (Some 3)
    (Option.map Sched.pid (opt (Dsq.remove q ~pid:3)));
  check Alcotest.int "one entry left" 1 (Dsq.length q)

(* Steady-state queue traffic allocates nothing: tokens are immediate ints,
   moves and requeues carry entries through int columns, and the trace
   events go out packed. *)
let test_queue_traffic_allocates_nothing () =
  List.iter
    (fun mode ->
      let q = inert_queue ~mode "a" and local = inert_queue ~mode "b" in
      let round i =
        let pid = i mod 8 in
        let next = (pid + 1) mod 8 in
        Dsq.insert q ~vtime:(i mod 5) (token ~cpu:(pid mod 2) pid);
        Dsq.insert q ~vtime:(i mod 3) (token ~cpu:(next mod 2) next);
        ignore (Sys.opaque_identity (Dsq.requeue q ~pid:next (token ~cpu:1 next) ~into:q ~front:true));
        ignore (Dsq.move_for q ~cpu:(pid mod 2) ~into:local);
        ignore (Sys.opaque_identity (Dsq.remove q ~pid));
        ignore (Sys.opaque_identity (Dsq.consume q));
        ignore (Sys.opaque_identity (Dsq.consume local))
      in
      for i = 1 to 64 do
        round i
      done;
      let before = Gc.minor_words () in
      for i = 1 to 10_000 do
        round i
      done;
      let words = Gc.minor_words () -. before in
      check (Alcotest.float 0.0) "minor words over 10k rounds" 0.0 words)
    [ Dsq.Fifo; Dsq.Vtime ]

(* ---------- queue properties ---------- *)

let prop_fifo_stable n =
  let n = n mod 100 in
  let q = inert_queue "p" in
  for pid = 0 to n - 1 do
    Dsq.insert q ~vtime:0 (token pid)
  done;
  let rec drain acc =
    match opt (Dsq.consume q) with Some tok -> drain (Sched.pid tok :: acc) | None -> List.rev acc
  in
  drain [] = List.init n Fun.id

let prop_vtime_monotone vtimes =
  let q = inert_queue ~mode:Dsq.Vtime "p" in
  List.iteri (fun pid vt -> Dsq.insert q ~vtime:vt (token pid)) vtimes;
  let rec drain acc =
    match opt (Dsq.consume q) with Some tok -> drain (Sched.pid tok :: acc) | None -> List.rev acc
  in
  let out = drain [] in
  List.length out = List.length vtimes
  &&
  let vt = Array.of_list vtimes in
  let rec sorted = function
    | a :: b :: rest ->
      (* consume order is non-decreasing vtime, insertion order on ties *)
      (vt.(a) < vt.(b) || (vt.(a) = vt.(b) && a < b)) && sorted (b :: rest)
    | _ -> true
  in
  sorted out

(* A reference model of the queue as it was built on a deque and a
   persistent red-black tree: an array of entries kept in consumption
   order, FIFO order for a FIFO queue and (vtime, seq) order for a vtime
   queue.  Every operation is the old entry-record one: [take_for] + [put]
   for a move, [remove] + [put] or [put_front] for a requeue.  A queue's
   seqs are unique, since [put] numbers from its own counter and
   [put_front] returns an entry to the queue that numbered it. *)
module Ref = struct
  type e = { pid : int; cpu : int; vtime : int; seq : int }

  type q = { vtime_mode : bool; mutable es : e array; mutable len : int; mutable seq : int }

  let create vtime_mode = { vtime_mode; es = [||]; len = 0; seq = 0 }

  let insert_at q i (e : e) =
    if q.len = Array.length q.es then begin
      let es = Array.make (max 8 (2 * q.len)) e in
      Array.blit q.es 0 es 0 q.len;
      q.es <- es
    end;
    Array.blit q.es i q.es (i + 1) (q.len - i);
    q.es.(i) <- e;
    q.len <- q.len + 1

  (* the index of the first entry after which [e] does not sort *)
  let position q (e : e) ~fifo_at =
    if not q.vtime_mode then fifo_at
    else begin
      let i = ref 0 in
      while
        !i < q.len
        && (q.es.(!i).vtime < e.vtime || (q.es.(!i).vtime = e.vtime && q.es.(!i).seq < e.seq))
      do
        incr i
      done;
      !i
    end

  let take q f =
    let i = ref 0 in
    while !i < q.len && not (f q.es.(!i)) do
      incr i
    done;
    if !i = q.len then None
    else begin
      let e = q.es.(!i) in
      Array.blit q.es (!i + 1) q.es !i (q.len - !i - 1);
      q.len <- q.len - 1;
      Some e
    end

  let put q (e : e) =
    let e = { e with seq = q.seq } in
    q.seq <- q.seq + 1;
    insert_at q (position q e ~fifo_at:q.len) e

  let insert q ~pid ~cpu ~vtime = put q { pid; cpu; vtime; seq = 0 }

  let put_front q e = insert_at q (position q e ~fifo_at:0) e

  (* [entries] lists the queue's entries in order *)
  let matches q entries =
    let rec go i = function
      | [] -> i = q.len
      | (pid, cpu, vtime) :: rest ->
        i < q.len
        && (let e = q.es.(i) in
            e.pid = pid && e.cpu = cpu && e.vtime = vtime)
        && go (i + 1) rest
    in
    go 0 entries
end

(* Random insert / consume / move / remove / requeue sequences over two
   queues of one mode, with pids queued twice: consumption order, the
   entries handed back and each queue's contents must match the model. *)
let prop_dsq_matches_reference vtime_mode ops =
  let mode = if vtime_mode then Dsq.Vtime else Dsq.Fifo in
  let qs = [| inert_queue ~mode "a"; inert_queue ~mode "b" |] in
  let rs = [| Ref.create vtime_mode; Ref.create vtime_mode |] in
  let got tok = Option.map (fun t -> (Sched.pid t, Sched.cpu t)) (opt tok) in
  let want e = Option.map (fun (e : Ref.e) -> (e.pid, e.cpu)) e in
  let contents i =
    Ref.matches rs.(i)
      (List.map
         (fun (e : Dsq.entry) -> (e.Dsq.pid, Sched.cpu e.Dsq.token, e.Dsq.vtime))
         (Dsq.Private.to_list qs.(i)))
  in
  List.for_all
    (fun (op, (pid, cpu, vtime)) ->
      let i = op mod 2 and pid = pid mod 6 and cpu = cpu mod 3 and vtime = vtime mod 5 in
      let j = 1 - i in
      let ok =
        match op / 2 mod 6 with
        | 0 | 1 ->
          Dsq.insert qs.(i) ~vtime (token ~cpu pid);
          Ref.insert rs.(i) ~pid ~cpu ~vtime;
          true
        | 2 -> got (Dsq.consume qs.(i)) = want (Ref.take rs.(i) (fun _ -> true))
        | 3 ->
          let moved = Ref.take rs.(i) (fun e -> e.cpu = cpu) in
          Option.iter (Ref.put rs.(j)) moved;
          Dsq.move_for qs.(i) ~cpu ~into:qs.(j)
          = (match moved with Some e -> e.pid | None -> -1)
        | 4 -> got (Dsq.remove qs.(i) ~pid) = want (Ref.take rs.(i) (fun e -> e.pid = pid))
        | _ ->
          let front = vtime mod 2 = 0 in
          let old = Ref.take rs.(i) (fun e -> e.pid = pid) in
          Option.iter
            (fun e ->
              let e = { e with Ref.cpu } in
              if front then Ref.put_front rs.(i) e else Ref.put rs.(j) e)
            old;
          got
            (Dsq.requeue qs.(i) ~pid (token ~cpu pid)
               ~into:(if front then qs.(i) else qs.(j))
               ~front)
          = want old
      in
      ok && contents 0 && contents 1)
    ops

(* Op sequences of 100-600 steps: long enough to grow both queues past
   their first capacities, and bounded, since checking both queues'
   contents after every step makes a sequence's cost quadratic in its
   length. *)
let dsq_ops =
  QCheck.(list_of_size Gen.(100 -- 600) (pair small_nat (triple small_nat small_nat small_nat)))

(* The dual-queue promotion bound, on the pure decision function: replay
   the adapter's streak updates over an arbitrary low_queued history and
   check the low queue never waits through more than [promote_after]
   consecutive high dispatches. *)
let prop_promotion_bound history =
  let streak = ref 0 and waited = ref 0 and ok = ref true in
  List.iter
    (fun low_queued ->
      match Schedulers.Scx_prio_dq.Private.pick_source ~streak:!streak ~low_queued with
      | `Low ->
        if not low_queued then ok := false;
        streak := 0;
        waited := 0
      | `High ->
        if low_queued then begin
          incr streak;
          incr waited;
          if !waited > Schedulers.Scx_prio_dq.Private.promote_after then ok := false
        end
        else waited := 0)
    history;
  !ok

(* ---------- cross-policy upgrades ---------- *)

let hog ~chunk ~steps =
  let left = ref steps in
  fun (_ : T.ctx) ->
    if !left = 0 then T.exit
    else begin
      decr left;
      T.compute chunk
    end

let expect_incompatible ~from_name from_sched to_sched =
  let b =
    Workloads.Setup.build ~topology:Kernsim.Topology.one_socket (Workloads.Setup.Enoki_sched from_sched)
  in
  ignore
    (M.spawn b.Workloads.Setup.machine
       { (T.default_spec ~name:"h" (hog ~chunk:(Kernsim.Time.ms 1) ~steps:50)) with
         T.policy = b.Workloads.Setup.policy });
  M.run_for b.Workloads.Setup.machine (Kernsim.Time.ms 5);
  let e = Option.get b.Workloads.Setup.enoki in
  (match Enoki.Enoki_c.upgrade e to_sched with
  | Error (Enoki.Upgrade.Incompatible _) -> ()
  | Error exn -> raise exn
  | Ok _ -> Alcotest.failf "%s: incompatible upgrade must be rejected" from_name);
  check Alcotest.string (from_name ^ " still registered") from_name
    (Enoki.Enoki_c.scheduler_name e);
  (* the rejected upgrade must leave the machine fully functional *)
  M.run_for b.Workloads.Setup.machine (Kernsim.Time.ms 200);
  check Alcotest.int (from_name ^ ": no tasks alive") 0
    (List.length
       (List.filter
          (fun (t : T.t) -> t.T.state <> T.Dead)
          (M.tasks b.Workloads.Setup.machine)))

let test_cross_policy_upgrade_rejected () =
  (* a Dsq_state transfer names its policy: another DSQ policy must refuse
     it, as must a non-DSQ scheduler (and vice versa) *)
  expect_incompatible ~from_name:"scx-simple" (module Schedulers.Scx_simple : Enoki.Sched_trait.S)
    (module Schedulers.Scx_rr : Enoki.Sched_trait.S);
  expect_incompatible ~from_name:"scx-simple" (module Schedulers.Scx_simple : Enoki.Sched_trait.S)
    (module Schedulers.Wfq : Enoki.Sched_trait.S);
  expect_incompatible ~from_name:"wfq" (module Schedulers.Wfq : Enoki.Sched_trait.S)
    (module Schedulers.Scx_prio_dq : Enoki.Sched_trait.S)

(* ---------- suite ---------- *)

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let () =
  Alcotest.run "dsq"
    [
      ( "queue",
        [
          Alcotest.test_case "fifo basics" `Quick test_fifo_basic;
          Alcotest.test_case "vtime ordering" `Quick test_vtime_ordering;
          Alcotest.test_case "take_for and silent moves" `Quick test_take_for_and_silent_moves;
          Alcotest.test_case "queue traffic allocates nothing" `Quick
            test_queue_traffic_allocates_nothing;
          qtest "FIFO consume order is insert order" QCheck.small_nat prop_fifo_stable;
          qtest ~count:100 "FIFO queue matches the reference model" dsq_ops
            (prop_dsq_matches_reference false);
          qtest ~count:100 "vtime queue matches the reference model" dsq_ops
            (prop_dsq_matches_reference true);
          qtest "vtime consume order is monotone, ties stable"
            QCheck.(list small_nat)
            prop_vtime_monotone;
        ] );
      ( "prio-dq",
        [
          qtest ~count:200 "promotion bounds low-queue wait"
            QCheck.(list bool)
            prop_promotion_bound;
        ] );
      ( "policies",
        [
          Alcotest.test_case "cross-policy upgrade rejected" `Quick
            test_cross_policy_upgrade_rejected;
        ] );
    ]
