(* A distribution is data, not a closure: a closure's float result is boxed
   on every draw, while [sample_int] inlines [draw] and truncates the
   float before it ever leaves the function. *)
type t =
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float }
  | Pareto of { alpha : float; la : float; ha : float }
  | Lognormal of { mu : float; sigma : float }
  | Mixture of { weights : float array; parts : t array; total : float }

(* [Prng.float], scaled here so the float stays local *)
let[@inline] unit_float rng = float_of_int (Prng.bits53 rng) *. 0x1p-53

(* the part [x] falls in: the first whose running weight sum exceeds [x],
   else the last *)
let[@inline] pick weights x =
  let last = Array.length weights - 1 in
  let acc = ref 0.0 and i = ref 0 in
  while !i < last && not (x < !acc +. weights.(!i)) do
    acc := !acc +. weights.(!i);
    incr i
  done;
  !i

(* Resolve (nested) mixtures to the leaf distribution this draw samples,
   consuming the stream exactly as sampling the mixture would. *)
let rec leaf t rng =
  match t with
  | Mixture { weights; parts; total } -> leaf parts.(pick weights (unit_float rng *. total)) rng
  | t -> t

(* One draw from a leaf. *)
let[@inline] draw t rng =
  match t with
  | Constant v -> v
  | Uniform { lo; hi } -> lo +. ((hi -. lo) *. unit_float rng)
  | Exponential { mean } ->
    let u = 1.0 -. unit_float rng in
    -.mean *. log u
  | Pareto { alpha; la; ha } ->
    (* inverse CDF of the bounded Pareto *)
    let u = unit_float rng in
    (-.((u *. ha) -. u -. ha) /. (ha *. la)) ** (-1.0 /. alpha)
  | Lognormal { mu; sigma } ->
    (* Box-Muller *)
    let u1 = 1.0 -. unit_float rng in
    let u2 = unit_float rng in
    let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
    exp (mu +. (sigma *. z))
  | Mixture _ -> assert false

let sample t rng = draw (leaf t rng) rng

let sample_int t rng = int_of_float (draw (leaf t rng) rng)

let constant v = Constant v

let uniform ~lo ~hi =
  if hi < lo then invalid_arg "Dist.uniform";
  Uniform { lo; hi }

let exponential ~mean =
  if mean <= 0.0 then invalid_arg "Dist.exponential";
  Exponential { mean }

let pareto ~alpha ~lo ~hi =
  if alpha <= 0.0 || lo <= 0.0 || hi < lo then invalid_arg "Dist.pareto";
  Pareto { alpha; la = lo ** alpha; ha = hi ** alpha }

let lognormal ~mu ~sigma =
  if sigma < 0.0 then invalid_arg "Dist.lognormal";
  Lognormal { mu; sigma }

let mixture parts =
  if parts = [] then invalid_arg "Dist.mixture";
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 parts in
  if total <= 0.0 then invalid_arg "Dist.mixture: weights";
  Mixture
    {
      weights = Array.of_list (List.map fst parts);
      parts = Array.of_list (List.map snd parts);
      total;
    }

module Private = struct
  let constant = constant
end
