type policy = Round_robin | Least_outstanding | Weighted | Consistent_hash

let policy_name = function
  | Round_robin -> "round-robin"
  | Least_outstanding -> "least-outstanding"
  | Weighted -> "weighted"
  | Consistent_hash -> "consistent-hash"

let policies = [ Round_robin; Least_outstanding; Weighted; Consistent_hash ]

let policy_names = List.map policy_name policies

let policy_of_string s =
  match List.find_opt (fun p -> policy_name p = s) policies with
  | Some p -> Ok p
  | None ->
    Error (Printf.sprintf "unknown lb policy %S (expected one of: %s)" s
             (String.concat ", " policy_names))

(* splitmix64-style finaliser truncated to OCaml's native int: good enough
   mixing for ring placement and key hashing, and fully deterministic. *)
let mix x =
  let z = ref (x lxor 0x9E37_79B9) in
  z := (!z lxor (!z lsr 30)) * 0x2545_F491_4F6C_DD1D;
  z := (!z lxor (!z lsr 27)) * 0x1B87_3593_49BB_0941;
  (!z lxor (!z lsr 31)) land max_int

let vnodes = 64

type t = {
  policy : policy;
  n : int;
  up : bool array;
  out : int array;  (* outstanding per host *)
  weights : int array;
  rng : Stats.Prng.t;  (* least-outstanding tie-breaks *)
  mutable rr : int;  (* round-robin cursor *)
  wrr : int array;  (* smooth-WRR current weights *)
  ring : (int * int) array;  (* (hash, host), sorted by hash *)
  scratch : int array;  (* tie candidates, reused to avoid allocation *)
  picked : int option array;  (* [Some i] per host, shared by every pick *)
}

let create ?weights ~policy ~hosts ~seed () =
  if hosts <= 0 then invalid_arg "Lb.create: hosts must be positive";
  let weights =
    match weights with
    | None -> Array.make hosts 1
    | Some w ->
      if Array.length w <> hosts then invalid_arg "Lb.create: weights length <> hosts";
      Array.iter (fun x -> if x <= 0 then invalid_arg "Lb.create: weights must be positive") w;
      Array.copy w
  in
  let ring =
    Array.init (hosts * vnodes) (fun i ->
        let host = i / vnodes and v = i mod vnodes in
        (mix ((host lsl 20) lor v), host))
  in
  Array.sort compare ring;
  {
    policy;
    n = hosts;
    up = Array.make hosts true;
    out = Array.make hosts 0;
    weights;
    rng = Stats.Prng.create ~seed;
    rr = hosts - 1;
    wrr = Array.make hosts 0;
    ring;
    scratch = Array.make hosts 0;
    picked = Array.init hosts Option.some;
  }

let any_up t = Array.exists Fun.id t.up

let pick_rr t =
  (* first up host clockwise of the cursor *)
  let rec go k =
    if k > t.n then None
    else
      let i = (t.rr + k) mod t.n in
      if t.up.(i) then begin
        t.rr <- i;
        t.picked.(i)
      end
      else go (k + 1)
  in
  go 1

let pick_least t =
  let best = ref max_int and ties = ref 0 in
  for i = 0 to t.n - 1 do
    if t.up.(i) then
      if t.out.(i) < !best then begin
        best := t.out.(i);
        t.scratch.(0) <- i;
        ties := 1
      end
      else if t.out.(i) = !best then begin
        t.scratch.(!ties) <- i;
        incr ties
      end
  done;
  if !ties = 0 then None
  else if !ties = 1 then t.picked.(t.scratch.(0))
  else t.picked.(t.scratch.(Stats.Prng.int t.rng !ties))

let pick_weighted t =
  (* nginx smooth weighted round-robin, restricted to up hosts *)
  let total = ref 0 in
  let best = ref (-1) in
  for i = 0 to t.n - 1 do
    if t.up.(i) then begin
      t.wrr.(i) <- t.wrr.(i) + t.weights.(i);
      total := !total + t.weights.(i);
      if !best < 0 || t.wrr.(i) > t.wrr.(!best) then best := i
    end
  done;
  if !best < 0 then None
  else begin
    t.wrr.(!best) <- t.wrr.(!best) - !total;
    t.picked.(!best)
  end

let pick_hash t ~key =
  if not (any_up t) then None
  else begin
    let h = mix key in
    let len = Array.length t.ring in
    (* first ring entry with hash >= h (wrapping) *)
    let lo = ref 0 and hi = ref len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst t.ring.(mid) < h then lo := mid + 1 else hi := mid
    done;
    let start = if !lo = len then 0 else !lo in
    (* walk clockwise past drained owners; terminates because some host is up *)
    let rec go k =
      let _, host = t.ring.((start + k) mod len) in
      if t.up.(host) then host else go (k + 1)
    in
    t.picked.(go 0)
  end

let pick t ~key =
  match t.policy with
  | Round_robin -> pick_rr t
  | Least_outstanding -> pick_least t
  | Weighted -> pick_weighted t
  | Consistent_hash -> pick_hash t ~key

let check t i name = if i < 0 || i >= t.n then invalid_arg ("Lb." ^ name ^ ": bad host")

let dispatch t i =
  check t i "dispatch";
  t.out.(i) <- t.out.(i) + 1

let complete t i =
  check t i "complete";
  t.out.(i) <- t.out.(i) - 1

let outstanding t i =
  check t i "outstanding";
  t.out.(i)

let drain t i =
  check t i "drain";
  t.up.(i) <- false

let admit t i =
  check t i "admit";
  t.up.(i) <- true

let drained t i =
  check t i "drained";
  not t.up.(i)

module Private = struct
  let outstanding = outstanding
end
