(* every field an int: a float field would box on each crossing *)
type cell = { mutable count : int; mutable sim_ns : int; mutable wall_ns : int }

type t = {
  cells : (string * string, cell) Hashtbl.t; (* (sched, call) -> totals *)
  mutable total : int;
}

type row = { sched : string; call : string; count : int; sim_ns : int; wall_ns : float }

let create () = { cells = Hashtbl.create 32; total = 0 }

(* [Monotonic_clock.now]'s external is unboxed and [@@noalloc], and it is
   inlined here, so a reading is an int and allocates nothing. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* [Gc.minor_words] counts up to the allocation pointer; on OCaml 5.1
   [Gc.allocated_bytes] and the minor count of [Gc.counters] stop at the
   last minor collection, so their differences move with where the
   collections fall.  Promoted words are already minor words, so only the
   major words allocated directly are added. *)
let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

(* The (sched, call) lookup builds a tuple key and hashes two strings, so
   a caller resolves its cell once and then records into it directly. *)
let cell t ~sched ~call =
  match Hashtbl.find_opt t.cells (sched, call) with
  | Some c -> c
  | None ->
    let c = { count = 0; sim_ns = 0; wall_ns = 0 } in
    Hashtbl.add t.cells (sched, call) c;
    c

let record_cell t (cell : cell) ~sim_ns ~wall_ns =
  cell.count <- cell.count + 1;
  cell.sim_ns <- cell.sim_ns + sim_ns;
  cell.wall_ns <- cell.wall_ns + Stdlib.max 0 wall_ns;
  t.total <- t.total + 1

let crossings t = t.total

let rows t =
  Hashtbl.fold
    (fun (sched, call) (c : cell) acc ->
      if c.count = 0 then acc
      else
        { sched; call; count = c.count; sim_ns = c.sim_ns; wall_ns = float_of_int c.wall_ns }
        :: acc)
    t.cells []
  |> List.sort (fun a b ->
         match String.compare a.sched b.sched with
         | 0 -> (
           match Int.compare b.count a.count with
           | 0 -> String.compare a.call b.call
           | c -> c)
         | c -> c)

let table_header = [ "scheduler"; "callback"; "crossings"; "sim ns/call"; "wall ns/call"; "share" ]

let table_rows t =
  let rs = rows t in
  let total = float_of_int (Stdlib.max 1 t.total) in
  List.map
    (fun r ->
      let n = float_of_int (Stdlib.max 1 r.count) in
      [
        r.sched;
        r.call;
        string_of_int r.count;
        Printf.sprintf "%.0f" (float_of_int r.sim_ns /. n);
        Printf.sprintf "%.0f" (r.wall_ns /. n);
        Printf.sprintf "%.1f%%" (100.0 *. float_of_int r.count /. total);
      ])
    rs

