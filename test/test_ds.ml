(* Unit and property tests for the data-structure substrate (lib/ds). *)

module IntRb = Ds.Rbtree.Make (Int)

let check = Alcotest.check

(* ---------- Rbtree unit tests ---------- *)

let rb_of_list l = List.fold_left (fun t k -> IntRb.add k (k * 10) t) IntRb.empty l

let test_rb_empty () =
  check Alcotest.bool "is_empty" true (IntRb.is_empty IntRb.empty);
  check Alcotest.int "cardinal" 0 (IntRb.cardinal IntRb.empty);
  check Alcotest.bool "min none" true (IntRb.min_binding_opt IntRb.empty = None)

let test_rb_add_find () =
  let t = rb_of_list [ 5; 3; 8; 1; 4 ] in
  check Alcotest.int "cardinal" 5 (IntRb.cardinal t);
  check Alcotest.(option int) "find 3" (Some 30) (IntRb.find_opt 3 t);
  check Alcotest.(option int) "find 9" None (IntRb.find_opt 9 t);
  check Alcotest.bool "mem 8" true (IntRb.mem 8 t)

let test_rb_replace () =
  let t = IntRb.add 1 100 (IntRb.add 1 10 IntRb.empty) in
  check Alcotest.int "cardinal" 1 (IntRb.cardinal t);
  check Alcotest.(option int) "replaced" (Some 100) (IntRb.find_opt 1 t)

let test_rb_min_max () =
  let t = rb_of_list [ 5; 3; 8; 1; 4 ] in
  check Alcotest.(option (pair int int)) "min" (Some (1, 10)) (IntRb.min_binding_opt t);
  check Alcotest.(option (pair int int)) "max" (Some (8, 80)) (IntRb.max_binding_opt t)

let test_rb_remove () =
  let t = rb_of_list [ 5; 3; 8; 1; 4 ] in
  let t = IntRb.remove 3 t in
  check Alcotest.int "cardinal after remove" 4 (IntRb.cardinal t);
  check Alcotest.bool "gone" false (IntRb.mem 3 t);
  let t = IntRb.remove 42 t in
  check Alcotest.int "remove absent is noop" 4 (IntRb.cardinal t)

let test_rb_remove_all () =
  let keys = [ 7; 2; 9; 4; 1; 8; 3; 6; 5; 0 ] in
  let t = rb_of_list keys in
  let t = List.fold_left (fun t k -> IntRb.remove k t) t keys in
  check Alcotest.bool "empty after removing all" true (IntRb.is_empty t)

let test_rb_to_list_sorted () =
  let t = rb_of_list [ 5; 3; 8; 1; 4 ] in
  check
    Alcotest.(list (pair int int))
    "sorted"
    [ (1, 10); (3, 30); (4, 40); (5, 50); (8, 80) ]
    (IntRb.to_list t)

let test_rb_nth () =
  let t = rb_of_list [ 5; 3; 8 ] in
  check Alcotest.(pair int int) "nth 0" (3, 30) (IntRb.nth t 0);
  check Alcotest.(pair int int) "nth 2" (8, 80) (IntRb.nth t 2);
  Alcotest.check_raises "nth out of range" (Invalid_argument "Rbtree.nth") (fun () ->
      ignore (IntRb.nth t 3))

let test_rb_fold_iter () =
  let t = rb_of_list [ 2; 1; 3 ] in
  let sum = IntRb.fold (fun k _ acc -> acc + k) t 0 in
  check Alcotest.int "fold sum" 6 sum;
  let seen = ref [] in
  IntRb.iter (fun k _ -> seen := k :: !seen) t;
  check Alcotest.(list int) "iter order" [ 3; 2; 1 ] !seen

let test_rb_large_sequential () =
  let n = 2000 in
  let t = ref IntRb.empty in
  for i = 1 to n do
    t := IntRb.add i i !t
  done;
  check Alcotest.int "cardinal" n (IntRb.cardinal !t);
  check Alcotest.bool "no red-red" true (IntRb.Private.invariant_no_red_red !t);
  check Alcotest.bool "black height" true (IntRb.Private.invariant_black_height !t);
  for i = 1 to n / 2 do
    t := IntRb.remove (i * 2) !t
  done;
  check Alcotest.int "cardinal after deletes" (n / 2) (IntRb.cardinal !t);
  check Alcotest.bool "no red-red after deletes" true (IntRb.Private.invariant_no_red_red !t);
  check Alcotest.bool "black height after deletes" true (IntRb.Private.invariant_black_height !t);
  check Alcotest.(option (pair int int)) "min is 1" (Some (1, 1)) (IntRb.min_binding_opt !t)

(* ---------- Rbtree property tests ---------- *)

(* Apply a random sequence of add/remove operations and compare against
   Stdlib.Map while checking the red-black invariants throughout. *)
let ops_gen =
  QCheck.Gen.(
    list_size (int_bound 300)
      (pair bool (int_bound 50) >|= fun (add, k) -> if add then `Add k else `Remove k))

let ops_arbitrary =
  QCheck.make ops_gen ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function `Add k -> Printf.sprintf "+%d" k | `Remove k -> Printf.sprintf "-%d" k)
           ops))

module IntMap = Map.Make (Int)

let prop_rb_model ops =
  let apply (t, m) = function
    | `Add k -> (IntRb.add k k t, IntMap.add k k m)
    | `Remove k -> (IntRb.remove k t, IntMap.remove k m)
  in
  let t, m = List.fold_left apply (IntRb.empty, IntMap.empty) ops in
  IntRb.to_list t = IntMap.bindings m

let prop_rb_invariants ops =
  let apply t = function `Add k -> IntRb.add k k t | `Remove k -> IntRb.remove k t in
  let rec go t = function
    | [] -> true
    | op :: rest ->
      let t = apply t op in
      IntRb.Private.invariant_no_red_red t && IntRb.Private.invariant_black_height t
      && IntRb.Private.invariant_ordered t && go t rest
  in
  go IntRb.empty ops

let prop_rb_cardinal ops =
  let apply t = function `Add k -> IntRb.add k k t | `Remove k -> IntRb.remove k t in
  let t = List.fold_left apply IntRb.empty ops in
  IntRb.cardinal t = List.length (IntRb.to_list t)

let prop_rb_min ops =
  let apply t = function `Add k -> IntRb.add k k t | `Remove k -> IntRb.remove k t in
  let t = List.fold_left apply IntRb.empty ops in
  match (IntRb.min_binding_opt t, IntRb.to_list t) with
  | None, [] -> true
  | Some (k, _), (k', _) :: _ -> k = k'
  | _ -> false

(* ---------- Ring buffer ---------- *)

let test_ring_basic () =
  let r = Ds.Ring_buffer.create ~capacity:3 in
  check Alcotest.(list int) "empty" [] (Ds.Ring_buffer.drain r);
  check Alcotest.bool "push1" true (Ds.Ring_buffer.push r 1);
  check Alcotest.bool "push2" true (Ds.Ring_buffer.push r 2);
  check Alcotest.bool "push3" true (Ds.Ring_buffer.push r 3);
  check Alcotest.bool "push4 dropped" false (Ds.Ring_buffer.push r 4);
  check Alcotest.int "dropped" 1 (Ds.Ring_buffer.dropped r);
  check Alcotest.(list int) "fifo, the overrun lost" [ 1; 2; 3 ] (Ds.Ring_buffer.drain r)

let test_ring_wraparound () =
  let r = Ds.Ring_buffer.create ~capacity:2 in
  for i = 1 to 10 do
    check Alcotest.bool "push" true (Ds.Ring_buffer.push r i);
    check Alcotest.(list int) "drain" [ i ] (Ds.Ring_buffer.drain r)
  done;
  check Alcotest.int "no drops" 0 (Ds.Ring_buffer.dropped r)

let test_ring_drain () =
  let r = Ds.Ring_buffer.create ~capacity:4 in
  List.iter (fun i -> ignore (Ds.Ring_buffer.push r i)) [ 1; 2; 3 ];
  check Alcotest.(list int) "drain order" [ 1; 2; 3 ] (Ds.Ring_buffer.drain r);
  check Alcotest.(list int) "empty after drain" [] (Ds.Ring_buffer.drain r)

let test_ring_invalid () =
  Alcotest.check_raises "zero capacity" (Invalid_argument "Ring_buffer.create") (fun () ->
      ignore (Ds.Ring_buffer.create ~capacity:0))

let prop_ring_fifo pushes =
  (* with a big enough ring, pop order equals push order *)
  let r = Ds.Ring_buffer.create ~capacity:(List.length pushes + 1) in
  List.iter (fun x -> ignore (Ds.Ring_buffer.push r x)) pushes;
  Ds.Ring_buffer.drain r = pushes

(* ---------- Heap ---------- *)

let test_heap_order () =
  let h = Reference.Heap.create ~compare:Int.compare () in
  List.iter (Reference.Heap.add h) [ 5; 1; 4; 2; 3 ];
  let out = List.filter_map (fun _ -> Reference.Heap.pop h) [ 1; 2; 3; 4; 5 ] in
  check Alcotest.(list int) "sorted pops" [ 1; 2; 3; 4; 5 ] out;
  check Alcotest.bool "empty" true (Reference.Heap.is_empty h)

let test_heap_peek () =
  let h = Reference.Heap.create ~compare:Int.compare () in
  check Alcotest.(option int) "peek empty" None (Reference.Heap.peek h);
  Reference.Heap.add h 3;
  Reference.Heap.add h 1;
  check Alcotest.(option int) "peek min" (Some 1) (Reference.Heap.peek h);
  check Alcotest.int "len" 2 (Reference.Heap.length h)

let test_heap_remove_if () =
  let h = Reference.Heap.create ~compare:Int.compare () in
  List.iter (Reference.Heap.add h) [ 1; 2; 3; 4; 5; 6 ];
  Reference.Heap.remove_if h (fun x -> x mod 2 = 0);
  let out = List.filter_map (fun _ -> Reference.Heap.pop h) [ 1; 2; 3 ] in
  check Alcotest.(list int) "odds remain" [ 1; 3; 5 ] out

let prop_heap_sorts l =
  let h = Reference.Heap.create ~compare:Int.compare () in
  List.iter (Reference.Heap.add h) l;
  let rec drain acc =
    match Reference.Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  drain [] = List.sort Int.compare l

(* heap growth past the initial capacity, with stable (key, seq) ordering *)
let test_heap_growth_stability () =
  let cmp (t1, s1) (t2, s2) = if t1 <> t2 then Int.compare t1 t2 else Int.compare s1 s2 in
  let h = Reference.Heap.create ~compare:cmp () in
  let n = 10_000 in
  (* many duplicate keys inserted with increasing seq, in a scrambled order *)
  for i = 0 to n - 1 do
    Reference.Heap.add h ((i * 7919) mod 97, i)
  done;
  check Alcotest.int "length" n (Reference.Heap.length h);
  let rec drain prev count =
    match Reference.Heap.pop h with
    | None -> count
    | Some ((t, s) as e) ->
      if cmp prev e > 0 then
        Alcotest.failf "out of order: (%d,%d) after (%d,%d)" t s (fst prev) (snd prev);
      drain e (count + 1)
  in
  check Alcotest.int "drained all" n (drain (min_int, min_int) 0)

(* on_move position tracking + remove_at cancellation *)
let test_heap_remove_at () =
  let pos = Hashtbl.create 16 in
  let h =
    Reference.Heap.create
      ~on_move:(fun x i -> Hashtbl.replace pos x i)
      ~compare:Int.compare ()
  in
  List.iter (Reference.Heap.add h) [ 50; 10; 40; 20; 30; 60 ];
  (* cancel 40 via its tracked index *)
  let removed = Reference.Heap.remove_at h (Hashtbl.find pos 40) in
  check Alcotest.int "removed the tracked element" 40 removed;
  Hashtbl.remove pos 40;
  (* remaining elements pop in order, and the index map stays consistent *)
  let rec drain acc =
    match Reference.Heap.peek h with
    | None -> List.rev acc
    | Some x ->
      check Alcotest.int "tracked index of min is 0" 0 (Hashtbl.find pos x);
      ignore (Reference.Heap.pop h);
      drain (x :: acc)
  in
  check Alcotest.(list int) "rest sorted" [ 10; 20; 30; 50; 60 ] (drain []);
  check Alcotest.bool "remove_at out of bounds raises" true
    (try
       ignore (Reference.Heap.remove_at h 0);
       false
     with Invalid_argument _ -> true)

(* ---------- Pid heap ---------- *)

module Ph = Ds.Pid_heap

let test_pid_heap_basic () =
  let key = [| 30; 10; 20; 10 |] and pos = Array.make 4 (-1) in
  let h = Ph.create () in
  check Alcotest.int "empty top" (-1) (Ph.top h);
  List.iter (Ph.add h ~key ~tie:key ~pos) [ 0; 1; 2; 3 ];
  check Alcotest.int "length" 4 (Ph.length h);
  check Alcotest.int "smallest key, lower pid first" 1 (Ph.top h);
  Ph.remove h ~key ~tie:key ~pos 1;
  check Alcotest.int "unqueued pid has pos -1" (-1) pos.(1);
  Ph.remove h ~key ~tie:key ~pos 1;
  check Alcotest.int "removing twice is a no-op" 3 (Ph.length h);
  check Alcotest.int "tie broken by pid" 3 (Ph.top h)

(* Random add / remove / pop sequences against a (key, pid) list model.
   Adding a queued pid moves it under its new key, as WFQ re-queues.
   After every step: same length, same minimum, and [pos] gives each
   queued pid a distinct slot below the length and -1 to every other
   pid; reading the slots with [nth] visits exactly the model's pids, each
   at its [pos], in heap order, and [nth] past the length raises.
   Draining at the end must pop in the model's sorted order. *)
let prop_pid_heap_model ops =
  let n = 16 in
  let key = Array.make n 0 and pos = Array.make n (-1) in
  let h = Ph.create () in
  let model = ref [] in
  let consistent () =
    let sorted = List.sort compare !model in
    let min_ok = Ph.top h = match sorted with (_, p) :: _ -> p | [] -> -1 in
    let pos_ok =
      List.for_all
        (fun p ->
          match List.find_opt (fun (_, q) -> q = p) !model with
          | Some (k, _) -> key.(p) = k && pos.(p) >= 0 && pos.(p) < Ph.length h
          | None -> pos.(p) = -1)
        (List.init n Fun.id)
    in
    let slots = List.sort compare (List.map (fun (_, p) -> pos.(p)) !model) in
    let nth = List.init (Ph.length h) (Ph.nth h) in
    let nth_ok =
      List.sort compare nth = List.sort compare (List.map snd !model)
      && List.for_all2
           (fun i p ->
             let parent = Ph.nth h ((i - 1) / 2) in
             pos.(p) = i && (i = 0 || compare (key.(parent), parent) (key.(p), p) < 0))
           (List.init (List.length nth) Fun.id)
           nth
      && (try
            ignore (Ph.nth h (Ph.length h));
            false
          with Invalid_argument _ -> true)
    in
    Ph.length h = List.length !model
    && min_ok && pos_ok
    && slots = List.init (List.length slots) Fun.id
    && nth_ok
  in
  let drains_sorted () =
    let expected = List.map snd (List.sort compare !model) in
    let rec drain acc =
      let top = Ph.top h in
      if top < 0 then List.rev acc
      else begin
        Ph.remove h ~key ~tie:key ~pos top;
        drain (top :: acc)
      end
    in
    drain [] = expected
  in
  List.for_all
    (fun (op, pid, k) ->
      let pid = pid mod n in
      (match op mod 3 with
      | 0 ->
        Ph.remove h ~key ~tie:key ~pos pid;
        key.(pid) <- k mod 8;
        Ph.add h ~key ~tie:key ~pos pid;
        model := (k mod 8, pid) :: List.filter (fun (_, q) -> q <> pid) !model
      | 1 ->
        Ph.remove h ~key ~tie:key ~pos pid;
        model := List.filter (fun (_, q) -> q <> pid) !model
      | _ ->
        let top = Ph.top h in
        if top >= 0 then begin
          Ph.remove h ~key ~tie:key ~pos top;
          model := List.filter (fun (_, q) -> q <> top) !model
        end);
      consistent ())
    ops
  && drains_sorted ()

(* The tie column: random add / remove / pop sequences over elements with
   independent key and tie columns, against a sorted (key, tie, x) list. *)
let prop_pid_heap_tie_model ops =
  let n = 16 in
  let key = Array.make n 0 and tie = Array.make n 0 and pos = Array.make n (-1) in
  let h = Ph.create () in
  let model = ref [] in
  let unqueue x = model := List.filter (fun (_, _, y) -> y <> x) !model in
  List.for_all
    (fun (op, x, (k, d)) ->
      let x = x mod n in
      (match op mod 3 with
      | 0 ->
        Ph.remove h ~key ~tie ~pos x;
        unqueue x;
        key.(x) <- k mod 4;
        tie.(x) <- d mod 4;
        Ph.add h ~key ~tie ~pos x;
        model := (key.(x), tie.(x), x) :: !model
      | 1 ->
        Ph.remove h ~key ~tie ~pos x;
        unqueue x
      | _ ->
        let top = Ph.top h in
        if top >= 0 then begin
          Ph.remove h ~key ~tie ~pos top;
          unqueue top
        end);
      let want = match List.sort compare !model with (_, _, y) :: _ -> y | [] -> -1 in
      Ph.top h = want && Ph.length h = List.length !model)
    ops
  &&
  let rec drain acc =
    let top = Ph.top h in
    if top < 0 then List.rev acc
    else begin
      Ph.remove h ~key ~tie ~pos top;
      drain (top :: acc)
    end
  in
  drain [] = List.map (fun (_, _, y) -> y) (List.sort compare !model)

(* Steady-state add / remove / top allocate nothing. *)
let test_pid_heap_no_alloc () =
  let n = 64 in
  let key = Array.init n (fun i -> i * 7 mod 13) and tie = Array.init n (fun i -> i mod 3) in
  let pos = Array.make n (-1) in
  let h = Ph.create () in
  for x = 0 to n - 1 do
    Ph.add h ~key ~tie ~pos x
  done;
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    let x = Ph.top h in
    Ph.remove h ~key ~tie ~pos x;
    Ph.remove h ~key ~tie ~pos (i mod n);
    acc := !acc + x;
    Ph.add h ~key ~tie ~pos x;
    if pos.(i mod n) < 0 then Ph.add h ~key ~tie ~pos (i mod n)
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !acc);
  check (Alcotest.float 0.0) "minor words over 10k rounds" 0.0 words

(* ---------- Pid fifo ---------- *)

module Pf = Ds.Pid_fifo

let pf_list q =
  let rec walk e = if e < 0 then [] else (Pf.pid q e, Pf.value q e) :: walk (Pf.next q e) in
  walk (Pf.head q)

let test_pid_fifo_basic () =
  let q = Pf.create ~dummy:(-1) in
  check Alcotest.int "empty head" (-1) (Pf.head q);
  Pf.push_back q 1 10;
  Pf.push_back q 2 20;
  Pf.push_front q 0 0;
  check Alcotest.(list (pair int int)) "order" [ (0, 0); (1, 10); (2, 20) ] (pf_list q);
  check Alcotest.int "find" 20 (Pf.value q (Pf.find q 2));
  check Alcotest.int "remove from the middle" 10 (Pf.remove q 1);
  check Alcotest.int "absent pid gives the dummy" (-1) (Pf.remove q 1);
  check Alcotest.int "pop_front" 0 (Pf.pop_front q);
  check Alcotest.int "length" 1 (Pf.length q);
  check Alcotest.int "pop_front" 20 (Pf.pop_front q);
  check Alcotest.int "empty pop gives the dummy" (-1) (Pf.pop_front q)

(* Random push front/back, pop, remove by pid and scans, with duplicate
   and negative pids, against a list of (pid, value) pairs: removing a pid
   takes its oldest entry, as a front-to-back search of the list would. *)
let prop_pid_fifo_model ops =
  let q = Pf.create ~dummy:(-1) in
  let model = ref [] and next = ref 0 in
  let rec remove_first pid = function
    | [] -> (-1, [])
    | (p, v) :: rest when p = pid -> (v, rest)
    | x :: rest ->
      let v, rest = remove_first pid rest in
      (v, x :: rest)
  in
  List.for_all
    (fun (op, pid) ->
      let pid = (pid mod 8) - 1 in
      incr next;
      let ok =
        match op mod 5 with
        | 0 ->
          Pf.push_back q pid !next;
          model := !model @ [ (pid, !next) ];
          true
        | 1 ->
          Pf.push_front q pid !next;
          model := (pid, !next) :: !model;
          true
        | 2 ->
          let want = match !model with [] -> -1 | (_, v) :: rest -> model := rest; v in
          Pf.pop_front q = want
        | 3 ->
          let v, rest = remove_first pid !model in
          model := rest;
          Pf.remove q pid = v
        | _ ->
          let e = Pf.find q pid in
          let want = match List.assoc_opt pid !model with Some v -> v | None -> -1 in
          (if e < 0 then -1 else Pf.value q e) = want
      in
      ok
      && pf_list q = !model
      && Pf.length q = List.length !model
      && (pid < 0 || Pf.count q pid = List.length (List.filter (fun (p, _) -> p = pid) !model))
      && (Pf.head q < 0) = (!model = []))
    ops

(* Steady-state push at either end, pop and remove by pid allocate
   nothing once the slot pool and pid columns have grown. *)
let test_pid_fifo_no_alloc () =
  let q = Pf.create ~dummy:0 in
  for pid = 0 to 63 do
    Pf.push_back q pid pid
  done;
  for pid = 0 to 63 do
    ignore (Pf.remove q pid)
  done;
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    let pid = i mod 32 in
    Pf.push_back q pid i;
    Pf.push_front q (pid + 32) i;
    acc := !acc + Pf.remove q pid + Pf.pop_front q
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !acc);
  check (Alcotest.float 0.0) "minor words over 10k rounds" 0.0 words

(* ---------- Event queue ----------

   The simulator's default event queue (int slots in a [Ds.Pid_heap]),
   driven through [Kernsim.Sim].  The group keeps the name of the timing
   wheel it replaced; the horizon and boundary cases still pin order
   across the times where the wheel changed tiers. *)

module S = Kernsim.Sim

(* [at sim time v] logs [v] into [log] when it fires *)
let logged () =
  let sim = S.create () and log = ref [] in
  (sim, log, fun ~time v -> S.at sim ~time (fun () -> log := v :: !log))

let fired log =
  let l = List.rev !log in
  log := [];
  l

let test_wheel_fifo_ties () =
  let sim, log, at = logged () in
  List.iter (fun v -> at ~time:100 v) [ 10; 11; 12 ];
  at ~time:50 9;
  S.run sim;
  check Alcotest.(list int) "fifo at equal time" [ 9; 10; 11; 12 ] (fired log);
  check Alcotest.int "empty" 0 (S.Private.pending sim)

let test_wheel_cancel () =
  let sim, log, _ = logged () in
  let t1 = S.timer sim (fun () -> log := 1 :: !log) in
  let t2 = S.timer sim (fun () -> log := 2 :: !log) in
  S.arm_at sim t1 ~time:10;
  S.arm_at sim t2 ~time:20;
  check Alcotest.bool "t1 pending" true (S.Private.timer_pending t1);
  S.cancel sim t1;
  check Alcotest.bool "t1 cancelled" false (S.Private.timer_pending t1);
  check Alcotest.int "one left" 1 (S.Private.pending sim);
  S.run sim;
  check Alcotest.(list int) "t2 fires" [ 2 ] (fired log);
  check Alcotest.bool "fired timer not pending" false (S.Private.timer_pending t2);
  (* cancel after fire and double-cancel are no-ops *)
  S.cancel sim t2;
  S.cancel sim t1;
  check Alcotest.int "empty" 0 (S.Private.pending sim);
  check Alcotest.int "one dispatch" 1 (S.dispatched sim);
  Alcotest.check_raises "a timer belongs to its simulator"
    (Invalid_argument "Sim.cancel: timer from another simulator") (fun () ->
      S.cancel (S.create ()) t1)

let test_wheel_rearm_replaces () =
  let sim, log, at = logged () in
  let t1 = S.timer sim (fun () -> log := 7 :: !log) in
  S.arm_at sim t1 ~time:500;
  (* re-arming replaces the previous arm entirely *)
  S.arm_at sim t1 ~time:5;
  at ~time:50 8;
  check Alcotest.int "two pending" 2 (S.Private.pending sim);
  S.run sim;
  check Alcotest.(list int) "rearmed fires at new time, then the one-shot" [ 7; 8 ] (fired log);
  check Alcotest.int "nothing at the old time" 50 (S.now sim)

let test_wheel_overflow () =
  (* times past 2^32 and past the old wheel's 2^36 horizon still pop in
     global (time, seq) order *)
  let sim, log, at = logged () in
  let far = 1 lsl 33 and farther = 1 lsl 37 in
  at ~time:farther 5;
  at ~time:far 1;
  at ~time:5 2;
  at ~time:(far + 1) 3;
  at ~time:far 4;
  at ~time:(farther - 1) 6;
  S.run sim;
  check Alcotest.(list int) "near, far, far ties fifo, far+1, past 2^36" [ 2; 1; 4; 3; 6; 5 ]
    (fired log);
  check Alcotest.int "clock at the last event" farther (S.now sim)

let test_wheel_cascade_boundaries () =
  (* times straddling the old wheel's level boundaries (2^8, 2^16, 2^24,
     2^32, 2^36) pop sorted *)
  let times =
    [ 254; 255; 256; 257; 65535; 65536; 65537; 16777215; 16777216; 16777217; 511; 1;
      (1 lsl 32) + 1; 1 lsl 32; (1 lsl 32) - 1; (1 lsl 36) + 1; 1 lsl 36; (1 lsl 36) - 1 ]
  in
  let sim, log, at = logged () in
  List.iter (fun t -> at ~time:t t) times;
  S.run sim;
  check Alcotest.(list int) "sorted across boundaries" (List.sort Int.compare times) (fired log)

let test_wheel_next_before () =
  let sim, log, at = logged () in
  at ~time:1000 1;
  (* a bounded run below the earliest event fires nothing and stops the
     clock at the bound, so a later insert before the event keeps its time *)
  S.run_until sim ~until:500;
  check Alcotest.(list int) "nothing before 500" [] (fired log);
  check Alcotest.int "clock at the bound" 500 (S.now sim);
  at ~time:700 2;
  at ~time:100 3;
  S.run_until sim ~until:700;
  check Alcotest.(list int) "past time clamps to now; the bound fires" [ 3; 2 ] (fired log);
  S.run_until sim ~until:2000;
  check Alcotest.(list int) "then the original" [ 1 ] (fired log);
  check Alcotest.int "clock at the bound" 2000 (S.now sim)

(* The queue against a sorted-list model, under random interleavings of
   one-shot inserts, pops, timer arms, re-arms, and cancels — including
   far-future times past 2^32.  A pop runs the simulator up to the model's
   minimum time, which must fire exactly the model's events at that time
   in insertion order. *)
let prop_wheel_model ops =
  let sim, log, at = logged () in
  let timers = Array.init 4 (fun i -> S.timer sim (fun () -> log := (1000 + i) :: !log)) in
  let timer_seq = Array.make 4 None in
  (* model: (time, seq, v) list, min by (time, seq) *)
  let model = ref [] in
  let seq = ref 0 and next_v = ref 0 and ok = ref true in
  let fresh_seq () =
    let s = !seq in
    incr seq;
    s
  in
  let offset arg =
    let base = (arg * 37) mod 100_000 in
    if arg mod 13 = 0 then base + (1 lsl 33) else base
  in
  let m_insert time s v = model := (time, s, v) :: !model in
  let m_remove_seq s = model := List.filter (fun (_, s', _) -> s' <> s) !model in
  let pop_both () =
    match List.sort compare !model with
    | [] -> if S.Private.pending sim <> 0 then ok := false
    | (t, _, _) :: _ as sorted ->
      let due, rest = List.partition (fun (t', _, _) -> t' = t) sorted in
      model := rest;
      S.run_until sim ~until:t;
      if fired log <> List.map (fun (_, _, v) -> v) due then ok := false;
      List.iter (fun (_, _, v) -> if v >= 1000 then timer_seq.(v - 1000) <- None) due
  in
  let arm i time =
    (match timer_seq.(i) with Some s -> m_remove_seq s | None -> ());
    let s = fresh_seq () in
    S.arm_at sim timers.(i) ~time;
    m_insert time s (1000 + i);
    timer_seq.(i) <- Some s
  in
  List.iter
    (fun (k, arg) ->
      match k mod 5 with
      | 0 | 1 ->
        let s = fresh_seq () in
        let time = S.now sim + offset arg in
        let v = !next_v in
        next_v := (!next_v + 1) mod 1000;
        at ~time v;
        m_insert time s v
      | 2 -> pop_both ()
      | 3 -> (
        (* toggle: cancel when pending, arm when idle *)
        let i = arg mod 4 in
        match timer_seq.(i) with
        | Some s ->
          S.cancel sim timers.(i);
          m_remove_seq s;
          timer_seq.(i) <- None
        | None -> arm i (S.now sim + offset arg))
      | _ ->
        (* unconditional (re-)arm: replaces any previous arm *)
        arm (arg mod 4) (S.now sim + offset arg))
    ops;
  if S.Private.pending sim <> List.length !model then ok := false;
  while !model <> [] do
    pop_both ()
  done;
  !ok && S.Private.pending sim = 0

(* ---------- Int deque ---------- *)

module Id = Ds.Int_deque

(* pop everything, front first *)
let id_drain d =
  let rec go acc = match Id.pop_front d with -1 -> List.rev acc | x -> go (x :: acc) in
  go []

let test_deque_basic () =
  let d = Id.create () in
  check Alcotest.bool "empty" true (Id.is_empty d);
  Id.push_back d 0;
  Id.push_back d 1;
  Id.push_back d 2;
  check Alcotest.int "pop_front" 0 (Id.pop_front d);
  check Alcotest.int "length" 2 (Id.length d);
  check Alcotest.(list int) "rest in order" [ 1; 2 ] (id_drain d);
  check Alcotest.int "empty pops -1" (-1) (Id.pop_front d);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Int_deque.push_back: negative element") (fun () -> Id.push_back d (-1))

let test_deque_growth () =
  let d = Id.create () in
  for i = 1 to 100 do
    Id.push_back d i
  done;
  check Alcotest.int "length" 100 (Id.length d);
  check Alcotest.(list int) "order kept" (List.init 100 succ) (id_drain d)

(* removing from the middle is the Pid_fifo's job: the oldest entry goes *)
let test_deque_remove () =
  let q = Pf.create ~dummy:(-1) in
  List.iteri (fun i pid -> Pf.push_back q pid i) [ 1; 2; 3; 2 ];
  check Alcotest.int "removed" 1 (Pf.remove q 2);
  check Alcotest.(list int) "first occurrence gone" [ 1; 3; 2 ] (List.map fst (pf_list q));
  check Alcotest.int "absent" (-1) (Pf.remove q 9)

let test_deque_mixed_ends () =
  let d = Id.create () in
  (* push at the back and pop at the front so the ring has wrapped when
     it grows: growth must unroll it in order *)
  for i = 0 to 5 do
    Id.push_back d i
  done;
  for i = 0 to 3 do
    check Alcotest.int "pop" i (Id.pop_front d)
  done;
  for i = 6 to 20 do
    Id.push_back d i
  done;
  check Alcotest.int "length" 17 (Id.length d);
  check Alcotest.(list int) "order across the wrap" (List.init 17 (fun i -> i + 4)) (id_drain d)

let prop_deque_queue l =
  (* push_back + pop_front behaves as a FIFO *)
  let d = Id.create () in
  List.iter (Id.push_back d) l;
  let rec drain acc =
    match Id.pop_front d with -1 -> List.rev acc | x -> drain (x :: acc)
  in
  drain [] = l


(* ---------- Stats: Prng ---------- *)

let test_prng_deterministic () =
  let a = Stats.Prng.create ~seed:42 and b = Stats.Prng.create ~seed:42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Stats.Prng.next a) (Stats.Prng.next b)
  done

let test_prng_seeds_differ () =
  let a = Stats.Prng.create ~seed:1 and b = Stats.Prng.create ~seed:2 in
  let all_eq = ref true in
  for _ = 1 to 20 do
    if Stats.Prng.next a <> Stats.Prng.next b then all_eq := false
  done;
  check Alcotest.bool "streams differ" false !all_eq

let test_prng_float_range () =
  let r = Stats.Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let f = Stats.Prng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

let test_prng_int_range () =
  let r = Stats.Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Stats.Prng.int r 10 in
    if v < 0 || v >= 10 then Alcotest.failf "int out of range: %d" v
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int") (fun () ->
      ignore (Stats.Prng.int r 0))

let test_prng_split_independent () =
  let a = Stats.Prng.create ~seed:5 in
  let b = Stats.Prng.split a in
  let eq = ref 0 in
  for _ = 1 to 50 do
    if Stats.Prng.next a = Stats.Prng.next b then incr eq
  done;
  check Alcotest.bool "split stream distinct" true (!eq < 5)

(* The first eight draws of each kind at two seeds, fixed when the state
   moved from four [int64] fields into one buffer: any change to the
   generator's stream fails here before it shifts a simulation digest. *)
let prng_golden =
  [
    ( 42,
      [ 386749691100639685; 1747737923241135775; 3136146690562139752; 4264393527295531048;
        4573888244516329369; 3549796707516437646; 3316994727233550188; 3919972056329453601 ],
      [ 0x1.5780b2e0c2ecp-4; 0x1.84136619b444ep-2; 0x1.5c2ea66473c93p-1; 0x1.d9715a8e0766cp-1;
        0x1.fbcdb8ffc5d8bp-1; 0x1.8a1b4a6202f2ap-1; 0x1.7042a90ab4cbbp-1; 0x1.b3344e87d7ccp-1 ],
      [ 685; 775; 752; 48; 369; 646; 188; 601 ],
      [ 2574107853300986132; 296085735183073176; 2064510798331974457; 2627303400978749793;
        1022545251471924287; 4093548234621554876; 889612671483373947; 3260179609975139861 ] );
    ( 0x5eed_beef,
      [ 2032835874673630090; 1756584940548500414; 4226223659060851383; 2083318891309249340;
        4506407154917519024; 1969162941712855115; 683810891128398301; 3228679872122152191 ],
      [ 0x1.c36157524979ap-2; 0x1.860a4b25731aap-2; 0x1.d53480361d639p-1; 0x1.ce96f7e665932p-2;
        0x1.f44fcb7391197p-1; 0x1.b53df432da87p-2; 0x1.2fac4c3d680cp-3; 0x1.667499e63a5b2p-1 ],
      [ 90; 414; 383; 340; 24; 115; 301; 191 ],
      [ 1243914798407155987; 2519038342464262072; 114697912089638006; 687330622677809463;
        2892956678087264123; 2526272237303869415; 198456749935929531; 4564817731310619153 ] );
  ]

let test_prng_golden () =
  List.iter
    (fun (seed, next, float, int, split) ->
      let draws f = List.init 8 (fun _ -> f ()) in
      let fresh () = Stats.Prng.create ~seed in
      let r = fresh () in
      check Alcotest.(list int) "next" next (draws (fun () -> Stats.Prng.next r));
      let r = fresh () in
      check Alcotest.(list (float 0.0)) "float" float (draws (fun () -> Stats.Prng.float r));
      let r = fresh () in
      check Alcotest.(list int) "int 1000" int (draws (fun () -> Stats.Prng.int r 1000));
      let child = Stats.Prng.split (fresh ()) in
      check Alcotest.(list int) "after split" split (draws (fun () -> Stats.Prng.next child)))
    prng_golden

let test_prng_no_alloc () =
  let r = Stats.Prng.create ~seed:9 in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc lxor Stats.Prng.next r lxor Stats.Prng.int r 1000
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !acc);
  check (Alcotest.float 0.0) "minor words over 10k draws" 0.0 words

(* ---------- Stats: Dist ---------- *)

let rng () = Stats.Prng.create ~seed:123

let mean_of_samples d rng ~n =
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Stats.Dist.sample d rng
  done;
  !acc /. float_of_int n

let test_dist_constant () =
  check (Alcotest.float 0.0) "constant" 5.0
    (Stats.Dist.sample (Stats.Dist.Private.constant 5.0) (rng ()))

let test_dist_uniform_bounds () =
  let d = Stats.Dist.uniform ~lo:2.0 ~hi:4.0 in
  let r = rng () in
  for _ = 1 to 1000 do
    let x = Stats.Dist.sample d r in
    if x < 2.0 || x >= 4.0 then Alcotest.failf "uniform out of bounds: %f" x
  done

let test_dist_exponential_mean () =
  let d = Stats.Dist.exponential ~mean:10.0 in
  let m = mean_of_samples d (rng ()) ~n:20000 in
  check (Alcotest.float 0.5) "mean ~10" 10.0 m

let test_dist_pareto_bounds () =
  let d = Stats.Dist.pareto ~alpha:1.5 ~lo:1.0 ~hi:100.0 in
  let r = rng () in
  for _ = 1 to 1000 do
    let x = Stats.Dist.sample d r in
    if x < 0.99 || x > 100.01 then Alcotest.failf "pareto out of bounds: %f" x
  done

let test_dist_mixture_weights () =
  (* 90/10 mixture of constants: sample mean must sit near 10 *)
  let d =
    Stats.Dist.mixture [ (0.9, Stats.Dist.Private.constant 0.0); (0.1, Stats.Dist.Private.constant 100.0) ]
  in
  let m = mean_of_samples d (rng ()) ~n:20000 in
  check (Alcotest.float 1.0) "mixture mean" 10.0 m

let test_dist_lognormal_positive () =
  let d = Stats.Dist.lognormal ~mu:1.0 ~sigma:0.5 in
  let r = rng () in
  for _ = 1 to 1000 do
    if Stats.Dist.sample d r <= 0.0 then Alcotest.fail "lognormal must be positive"
  done

(* A test-local copy of the closure-based sampler the distributions used
   to be: every draw of the data-based one must match it bit for bit, and
   [sample_int] must be its truncation. *)
module Closure_reference = struct
  let uniform ~lo ~hi rng = lo +. ((hi -. lo) *. Stats.Prng.float rng)

  let exponential ~mean rng =
    let u = 1.0 -. Stats.Prng.float rng in
    -.mean *. log u

  let pareto ~alpha ~lo ~hi =
    let la = lo ** alpha and ha = hi ** alpha in
    fun rng ->
      let u = Stats.Prng.float rng in
      (-.((u *. ha) -. u -. ha) /. (ha *. la)) ** (-1.0 /. alpha)

  let lognormal ~mu ~sigma rng =
    let u1 = 1.0 -. Stats.Prng.float rng in
    let u2 = Stats.Prng.float rng in
    let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
    exp (mu +. (sigma *. z))

  let mixture parts =
    let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 parts in
    fun rng ->
      let x = Stats.Prng.float rng *. total in
      let rec pick acc = function
        | [ (_, d) ] -> d rng
        | (w, d) :: rest -> if x < acc +. w then d rng else pick (acc +. w) rest
        | [] -> assert false
      in
      pick 0.0 parts
end

let dist_cases =
  let module D = Stats.Dist in
  let module R = Closure_reference in
  [
    ("constant", D.Private.constant 7.5, fun _ -> 7.5);
    ("uniform", D.uniform ~lo:5_000.0 ~hi:25_000.0, R.uniform ~lo:5_000.0 ~hi:25_000.0);
    ("exponential", D.exponential ~mean:1e6, R.exponential ~mean:1e6);
    ( "pareto",
      D.pareto ~alpha:1.3 ~lo:20_000.0 ~hi:2_000_000.0,
      R.pareto ~alpha:1.3 ~lo:20_000.0 ~hi:2_000_000.0 );
    ( "lognormal",
      D.lognormal ~mu:(log 12_000.0) ~sigma:0.5,
      R.lognormal ~mu:(log 12_000.0) ~sigma:0.5 );
    ( "mixture",
      D.mixture
        [
          (0.5, D.uniform ~lo:1.0 ~hi:2.0);
          (0.3, D.mixture [ (1.0, D.Private.constant 9.0); (2.0, D.exponential ~mean:50.0) ]);
          (0.2, D.pareto ~alpha:1.1 ~lo:10.0 ~hi:1e4);
        ],
      R.mixture
        [
          (0.5, R.uniform ~lo:1.0 ~hi:2.0);
          (0.3, R.mixture [ (1.0, fun _ -> 9.0); (2.0, R.exponential ~mean:50.0) ]);
          (0.2, R.pareto ~alpha:1.1 ~lo:10.0 ~hi:1e4);
        ] );
  ]

let test_dist_matches_closure_reference () =
  List.iter
    (fun (name, d, reference) ->
      let a = Stats.Prng.create ~seed:31 and b = Stats.Prng.create ~seed:31 in
      let c = Stats.Prng.create ~seed:31 in
      for i = 1 to 2_000 do
        let x = Stats.Dist.sample d a and y = reference b in
        if Int64.bits_of_float x <> Int64.bits_of_float y then
          Alcotest.failf "%s draw %d: %h, reference %h" name i x y;
        let n = Stats.Dist.sample_int d c in
        if n <> int_of_float y then
          Alcotest.failf "%s draw %d: sample_int %d, truncated reference %d" name i n
            (int_of_float y)
      done)
    dist_cases

let test_dist_sample_int_no_alloc () =
  List.iter
    (fun (name, d, _) ->
      let r = Stats.Prng.create ~seed:5 in
      let acc = ref 0 in
      let before = Gc.minor_words () in
      for _ = 1 to 10_000 do
        acc := !acc lxor Stats.Dist.sample_int d r
      done;
      let words = Gc.minor_words () -. before in
      ignore (Sys.opaque_identity !acc);
      check (Alcotest.float 0.0) (name ^ ": minor words over 10k draws") 0.0 words)
    dist_cases

(* ---------- Stats: Histogram ---------- *)

let test_hist_empty () =
  let h = Stats.Histogram.create () in
  check Alcotest.int "count" 0 (Stats.Histogram.count h);
  check Alcotest.int "p50 of empty" 0 (Stats.Histogram.percentile h 50.0)

let test_hist_single () =
  let h = Stats.Histogram.create () in
  Stats.Histogram.record h 1000;
  check Alcotest.int "count" 1 (Stats.Histogram.count h);
  check Alcotest.int "min" 1000 (Stats.Histogram.min h);
  check Alcotest.int "max" 1000 (Stats.Histogram.max h);
  let p99 = Stats.Histogram.percentile h 99.0 in
  check Alcotest.bool "p99 near value" true (abs (p99 - 1000) <= 1000 / 16)

let test_hist_percentiles () =
  let h = Stats.Histogram.create () in
  for i = 1 to 1000 do
    Stats.Histogram.record h i
  done;
  let p50 = Stats.Histogram.percentile h 50.0 in
  let p99 = Stats.Histogram.percentile h 99.0 in
  check Alcotest.bool "p50 ~500" true (abs (p50 - 500) < 40);
  check Alcotest.bool "p99 ~990" true (abs (p99 - 990) < 60);
  check Alcotest.bool "p50 <= p99" true (p50 <= p99)

let test_hist_mean () =
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.record h) [ 10; 20; 30 ];
  check (Alcotest.float 0.01) "mean" 20.0 (Stats.Histogram.mean h)

let test_hist_merge () =
  let a = Stats.Histogram.create () and b = Stats.Histogram.create () in
  Stats.Histogram.record a 10;
  Stats.Histogram.record b 1000;
  Stats.Histogram.merge ~dst:a ~src:b;
  check Alcotest.int "count" 2 (Stats.Histogram.count a);
  check Alcotest.int "min" 10 (Stats.Histogram.min a);
  check Alcotest.int "max" 1000 (Stats.Histogram.max a)

let test_hist_clamps_zero () =
  let h = Stats.Histogram.create () in
  Stats.Histogram.record h 0;
  Stats.Histogram.record h (-5);
  check Alcotest.int "count" 2 (Stats.Histogram.count h);
  check Alcotest.int "min clamped to 1" 1 (Stats.Histogram.min h)

let prop_hist_percentile_monotone values =
  let h = Stats.Histogram.create () in
  List.iter (fun v -> Stats.Histogram.record h (abs v + 1)) values;
  let ps = [ 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 100.0 ] in
  let qs = List.map (Stats.Histogram.percentile h) ps in
  let rec mono = function a :: (b :: _ as rest) -> a <= b && mono rest | _ -> true in
  mono qs

let prop_hist_bounded_error v =
  (* percentile of a single recorded value has bounded relative error *)
  let v = (abs v mod 1_000_000_000) + 1 in
  let h = Stats.Histogram.create () in
  Stats.Histogram.record h v;
  let q = Stats.Histogram.percentile h 100.0 in
  let err = Float.abs (float_of_int (q - v)) /. float_of_int v in
  err <= 0.07

(* ---------- Stats: Summary ---------- *)

let test_summary_mean_stdev () =
  check (Alcotest.float 1e-9) "mean" 2.0 (Stats.Summary.mean [ 1.0; 2.0; 3.0 ]);
  check (Alcotest.float 1e-9) "stdev" 1.0 (Stats.Summary.stdev [ 1.0; 2.0; 3.0 ]);
  check (Alcotest.float 1e-9) "mean empty" 0.0 (Stats.Summary.mean [])

let test_summary_geomean () =
  check (Alcotest.float 1e-6) "geomean" 2.0 (Stats.Summary.geomean [ 1.0; 4.0 ]);
  check (Alcotest.float 1e-6) "geomean abs" 2.0 (Stats.Summary.geomean [ -1.0; -4.0 ])

let test_summary_percent_diff () =
  check (Alcotest.float 1e-9) "slower" 10.0
    (Stats.Summary.percent_diff ~baseline:100.0 ~value:90.0);
  check (Alcotest.float 1e-9) "faster" (-10.0)
    (Stats.Summary.percent_diff ~baseline:100.0 ~value:110.0);
  check (Alcotest.float 1e-9) "zero baseline" 0.0
    (Stats.Summary.percent_diff ~baseline:0.0 ~value:5.0)

(* ---------- suite ---------- *)

let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let () =
  Alcotest.run "ds-and-stats"
    [
      ( "rbtree",
        [
          Alcotest.test_case "empty" `Quick test_rb_empty;
          Alcotest.test_case "add/find" `Quick test_rb_add_find;
          Alcotest.test_case "replace" `Quick test_rb_replace;
          Alcotest.test_case "min/max" `Quick test_rb_min_max;
          Alcotest.test_case "remove" `Quick test_rb_remove;
          Alcotest.test_case "remove all" `Quick test_rb_remove_all;
          Alcotest.test_case "sorted to_list" `Quick test_rb_to_list_sorted;
          Alcotest.test_case "nth" `Quick test_rb_nth;
          Alcotest.test_case "fold/iter" `Quick test_rb_fold_iter;
          Alcotest.test_case "large sequential" `Quick test_rb_large_sequential;
        ] );
      ( "rbtree-properties",
        [
          qtest "models Map" ops_arbitrary prop_rb_model;
          qtest "red-black invariants hold" ops_arbitrary prop_rb_invariants;
          qtest "cardinal consistent" ops_arbitrary prop_rb_cardinal;
          qtest "min is first" ops_arbitrary prop_rb_min;
        ] );
      ( "ring_buffer",
        [
          Alcotest.test_case "basic" `Quick test_ring_basic;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "drain" `Quick test_ring_drain;
          Alcotest.test_case "invalid capacity" `Quick test_ring_invalid;
          qtest "fifo order" QCheck.(list small_int) prop_ring_fifo;
        ] );
      ( "heap",
        [
          Alcotest.test_case "pop order" `Quick test_heap_order;
          Alcotest.test_case "peek" `Quick test_heap_peek;
          Alcotest.test_case "remove_if" `Quick test_heap_remove_if;
          Alcotest.test_case "growth + stability" `Quick test_heap_growth_stability;
          Alcotest.test_case "remove_at" `Quick test_heap_remove_at;
          qtest "heapsort" QCheck.(list small_int) prop_heap_sorts;
        ] );
      ( "pid_heap",
        [
          Alcotest.test_case "basic" `Quick test_pid_heap_basic;
          qtest "models a sorted (key, pid) list"
            QCheck.(list (triple small_int small_int small_int))
            prop_pid_heap_model;
          qtest "models a sorted (key, tie, index) list"
            QCheck.(list (triple small_int small_int (pair small_int small_int)))
            prop_pid_heap_tie_model;
          Alcotest.test_case "steady state allocates nothing" `Quick test_pid_heap_no_alloc;
        ] );
      ( "pid_fifo",
        [
          Alcotest.test_case "basic" `Quick test_pid_fifo_basic;
          qtest "models a (pid, value) list" QCheck.(list (pair small_int small_int))
            prop_pid_fifo_model;
          Alcotest.test_case "steady state allocates nothing" `Quick test_pid_fifo_no_alloc;
        ] );
      ( "timer_wheel",
        [
          Alcotest.test_case "fifo ties" `Quick test_wheel_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_wheel_cancel;
          Alcotest.test_case "rearm replaces" `Quick test_wheel_rearm_replaces;
          Alcotest.test_case "overflow horizon" `Quick test_wheel_overflow;
          Alcotest.test_case "cascade boundaries" `Quick test_wheel_cascade_boundaries;
          Alcotest.test_case "next_before gating" `Quick test_wheel_next_before;
          qtest "wheel = sorted-list model" QCheck.(list (pair small_int small_int))
            prop_wheel_model;
        ] );
      ( "deque",
        [
          Alcotest.test_case "basic" `Quick test_deque_basic;
          Alcotest.test_case "growth" `Quick test_deque_growth;
          Alcotest.test_case "remove" `Quick test_deque_remove;
          Alcotest.test_case "mixed ends" `Quick test_deque_mixed_ends;
          qtest "fifo" QCheck.(list small_int) prop_deque_queue;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "golden streams" `Quick test_prng_golden;
          Alcotest.test_case "draws allocate nothing" `Quick test_prng_no_alloc;
        ] );
      ( "dist",
        [
          Alcotest.test_case "constant" `Quick test_dist_constant;
          Alcotest.test_case "uniform bounds" `Quick test_dist_uniform_bounds;
          Alcotest.test_case "exponential mean" `Quick test_dist_exponential_mean;
          Alcotest.test_case "pareto bounds" `Quick test_dist_pareto_bounds;
          Alcotest.test_case "mixture weights" `Quick test_dist_mixture_weights;
          Alcotest.test_case "lognormal positive" `Quick test_dist_lognormal_positive;
          Alcotest.test_case "draws match the closure reference" `Quick
            test_dist_matches_closure_reference;
          Alcotest.test_case "sample_int allocates nothing" `Quick test_dist_sample_int_no_alloc;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "single value" `Quick test_hist_single;
          Alcotest.test_case "percentiles" `Quick test_hist_percentiles;
          Alcotest.test_case "mean" `Quick test_hist_mean;
          Alcotest.test_case "merge" `Quick test_hist_merge;
          Alcotest.test_case "clamps nonpositive" `Quick test_hist_clamps_zero;
          qtest "percentiles monotone" QCheck.(list small_int) prop_hist_percentile_monotone;
          qtest "bounded relative error" QCheck.int prop_hist_bounded_error;
        ] );
      ( "summary",
        [
          Alcotest.test_case "mean/stdev" `Quick test_summary_mean_stdev;
          Alcotest.test_case "geomean" `Quick test_summary_geomean;
          Alcotest.test_case "percent_diff" `Quick test_summary_percent_diff;
        ] );
    ]
