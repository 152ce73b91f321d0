(* Persistent red-black trees.

   Insertion is Okasaki's classic formulation.  Deletion follows Germane &
   Might, "Deletion: the curse of the red-black tree" (JFP 24(4), 2014):
   a transient double-black colour [BB] (and double-black leaf [EE]) absorbs
   the missing black unit and is bubbled up by [rotate]/[balance] until it
   disappears.  Both invariants are re-checked by the qcheck suite. *)

module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

module Make (Key : ORDERED) = struct
  type key = Key.t

  type color = R | B | BB

  type 'a tree =
    | E
    | EE (* double-black leaf; only exists transiently during deletion *)
    | T of color * 'a tree * (key * 'a) * 'a tree

  type 'a t = { tree : 'a tree; size : int }

  let empty = { tree = E; size = 0 }

  let is_empty t = t.size = 0

  let cardinal t = t.size

  let rec find_opt_tree k = function
    | E | EE -> None
    | T (_, l, (k', v), r) ->
      let c = Key.compare k k' in
      if c < 0 then find_opt_tree k l
      else if c > 0 then find_opt_tree k r
      else Some v

  let find_opt k t = find_opt_tree k t.tree

  let mem k t = Option.is_some (find_opt k t)

  (* Okasaki's balance, extended with the double-black cases used by
     deletion: resolving a red-red violation under a BB node consumes the
     extra black unit, so the result root is B rather than R. *)
  let balance color l kv r =
    match (color, l, kv, r) with
    | B, T (R, T (R, a, x, b), y, c), z, d
    | B, T (R, a, x, T (R, b, y, c)), z, d
    | B, a, x, T (R, T (R, b, y, c), z, d)
    | B, a, x, T (R, b, y, T (R, c, z, d)) ->
      T (R, T (B, a, x, b), y, T (B, c, z, d))
    | BB, T (R, T (R, a, x, b), y, c), z, d
    | BB, T (R, a, x, T (R, b, y, c)), z, d
    | BB, a, x, T (R, T (R, b, y, c), z, d)
    | BB, a, x, T (R, b, y, T (R, c, z, d)) ->
      T (B, T (B, a, x, b), y, T (B, c, z, d))
    | c, l, x, r -> T (c, l, x, r)

  let add k v t =
    let rec ins = function
      | E | EE -> T (R, E, (k, v), E)
      | T (color, l, ((k', _) as kv), r) ->
        let c = Key.compare k k' in
        if c < 0 then balance color (ins l) kv r
        else if c > 0 then balance color l kv (ins r)
        else T (color, l, (k, v), r)
    in
    let tree =
      match ins t.tree with
      | T (_, l, kv, r) -> T (B, l, kv, r)
      | (E | EE) as leaf -> leaf
    in
    let size = if mem k t then t.size else t.size + 1 in
    { tree; size }

  (* [rotate] from Germane & Might: pushes a double black up one level,
     restructuring so [balance] can absorb it. *)
  let rotate color l kv r =
    match (color, l, kv, r) with
    (* red parent, double-black child, black sibling *)
    | R, EE, y, T (B, c, z, d) -> balance B (T (R, E, y, c)) z d
    | R, T (BB, a, x, b), y, T (B, c, z, d) ->
      balance B (T (R, T (B, a, x, b), y, c)) z d
    | R, T (B, a, x, b), y, EE -> balance B a x (T (R, b, y, E))
    | R, T (B, a, x, b), y, T (BB, c, z, d) ->
      balance B a x (T (R, b, y, T (B, c, z, d)))
    (* black parent, double-black child, black sibling *)
    | B, EE, y, T (B, c, z, d) -> balance BB (T (R, E, y, c)) z d
    | B, T (BB, a, x, b), y, T (B, c, z, d) ->
      balance BB (T (R, T (B, a, x, b), y, c)) z d
    | B, T (B, a, x, b), y, EE -> balance BB a x (T (R, b, y, E))
    | B, T (B, a, x, b), y, T (BB, c, z, d) ->
      balance BB a x (T (R, b, y, T (B, c, z, d)))
    (* black parent, double-black child, red sibling *)
    | B, EE, x, T (R, T (B, b, y, c), z, d) ->
      T (B, balance B (T (R, E, x, b)) y c, z, d)
    | B, T (BB, a, w, b), x, T (R, T (B, c, y, d), z, e) ->
      T (B, balance B (T (R, T (B, a, w, b), x, c)) y d, z, e)
    | B, T (R, a, w, T (B, b, x, c)), y, EE ->
      T (B, a, w, balance B b x (T (R, c, y, E)))
    | B, T (R, a, w, T (B, b, x, c)), y, T (BB, d, z, e) ->
      T (B, a, w, balance B b x (T (R, c, y, T (B, d, z, e))))
    | c, l, x, r -> T (c, l, x, r)

  (* Delete the minimum binding; the returned tree may carry a double black. *)
  let rec min_del = function
    | T (R, E, y, E) -> (y, E)
    | T (B, E, y, E) -> (y, EE)
    | T (B, E, y, T (R, E, z, E)) -> (y, T (B, E, z, E))
    | T (c, a, y, b) ->
      let m, a' = min_del a in
      (m, rotate c a' y b)
    | E | EE -> invalid_arg "Rbtree.min_del: empty"

  let remove k t =
    let rec del = function
      | E | EE -> E
      | T (R, E, ((k', _) as y), E) -> if Key.compare k k' = 0 then E else T (R, E, y, E)
      | T (B, E, ((k', _) as y), E) -> if Key.compare k k' = 0 then EE else T (B, E, y, E)
      | T (B, T (R, E, y, E), ((kz, _) as z), E) ->
        let c = Key.compare k kz in
        if c < 0 then T (B, del (T (R, E, y, E)), z, E)
        else if c = 0 then T (B, E, y, E)
        else T (B, T (R, E, y, E), z, E)
      | T (c, a, ((k', _) as y), b) ->
        let cmp = Key.compare k k' in
        if cmp < 0 then rotate c (del a) y b
        else if cmp > 0 then rotate c a y (del b)
        else
          let m, b' = min_del b in
          rotate c a m b'
    in
    if not (mem k t) then t
    else
      let tree =
        (* redden: giving the root a red coat lets a double black emerging
           from below be absorbed without escaping through the root *)
        match t.tree with
        | T (B, (T (B, _, _, _) as l), y, (T (B, _, _, _) as r)) ->
          del (T (R, l, y, r))
        | tr -> del tr
      in
      let tree =
        match tree with
        | T (_, l, kv, r) -> T (B, l, kv, r)
        | E | EE -> E
      in
      { tree; size = t.size - 1 }

  let rec min_binding_tree = function
    | E | EE -> None
    | T (_, E, kv, _) -> Some kv
    | T (_, l, _, _) -> min_binding_tree l

  let min_binding_opt t = min_binding_tree t.tree

  let rec max_binding_tree = function
    | E | EE -> None
    | T (_, _, kv, E) -> Some kv
    | T (_, _, _, r) -> max_binding_tree r

  let max_binding_opt t = max_binding_tree t.tree

  let rec iter_tree f = function
    | E | EE -> ()
    | T (_, l, (k, v), r) ->
      iter_tree f l;
      f k v;
      iter_tree f r

  let iter f t = iter_tree f t.tree

  let rec fold_tree f tr acc =
    match tr with
    | E | EE -> acc
    | T (_, l, (k, v), r) -> fold_tree f r (f k v (fold_tree f l acc))

  let fold f t acc = fold_tree f t.tree acc

  let to_list t = List.rev (fold (fun k v acc -> (k, v) :: acc) t [])

  let nth t i =
    if i < 0 || i >= t.size then invalid_arg "Rbtree.nth";
    match List.nth_opt (to_list t) i with
    | Some kv -> kv
    | None -> invalid_arg "Rbtree.nth"

  module Private = struct
    let rec no_red_red = function
      | E | EE -> true
      | T (R, T (R, _, _, _), _, _) | T (R, _, _, T (R, _, _, _)) -> false
      | T (_, l, _, r) -> no_red_red l && no_red_red r

    let invariant_no_red_red t = no_red_red t.tree

    (* Black height of every path, or None when paths disagree or a transient
       colour leaked out of deletion. *)
    let rec black_height = function
      | E -> Some 1
      | EE -> None
      | T (c, l, _, r) -> (
        match (black_height l, black_height r) with
        | Some hl, Some hr when hl = hr -> (
          match c with R -> Some hl | B -> Some (hl + 1) | BB -> None)
        | _ -> None)

    let invariant_black_height t = Option.is_some (black_height t.tree)

    let invariant_ordered t =
      let l = to_list t in
      let rec sorted = function
        | (k1, _) :: ((k2, _) :: _ as rest) ->
          Key.compare k1 k2 < 0 && sorted rest
        | [ _ ] | [] -> true
      in
      sorted l
  end
end
