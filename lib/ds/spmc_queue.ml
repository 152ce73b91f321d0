type 'a t = { items : 'a array; head : int Atomic.t }

let of_array items = { items; head = Atomic.make 0 }

(* Claim-by-index: one fetch-and-add both picks the slot and publishes the
   claim, so consumers never hand out the same item twice and never spin.
   Indices past the end are burned (the counter keeps growing on empty
   pops) — fine, a queue is single-batch and never refilled. *)
let pop t =
  let i = Atomic.fetch_and_add t.head 1 in
  if i < Array.length t.items then Some t.items.(i) else None
