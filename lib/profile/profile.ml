(* every field an int: a float field would box on each crossing.  [count]
   and [sim_ns] cover every crossing, [wall_ns] only the [samples] timed
   ones; [next] is the count at which the next timed crossing starts. *)
type cell = {
  mutable count : int;
  mutable sim_ns : int;
  mutable next : int;
  mutable samples : int;
  mutable wall_ns : int;
}

type t = {
  cells : (string * string, cell) Hashtbl.t; (* (sched, call) -> totals *)
  mutable total : int;
}

type row = {
  sched : string;
  call : string;
  count : int;
  sim_ns : int;
  samples : int;
  wall_ns_per_call : float;
}

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

(* Two clock readings cost more than most crossings they would time, so a
   cell times one crossing in each block of [sample_every]: crossings
   64b .. 64b+63 time crossing 64b + [offset b].  The offset is a hash of
   the block number, so a run times the same crossings every time, and it
   follows no period of the workload, as a fixed stride would: on the
   80-cpu schbench, timing crossings 0, 64, 128, ... read select_task_rq
   about a third above timing every one, for the first crossing is cold
   and every 64th falls at the same place in a round of wakeups. *)
let sample_every = 64

let offset block =
  let x = (block + 1) * 0x9E3779B97F4A7C1 in
  let x = (x lxor (x lsr 29)) * 0xBF58476D1CE4E5B in
  (x lxor (x lsr 32)) land (sample_every - 1)

(* The (sched, call) lookup builds a tuple key and hashes two strings, so
   a caller resolves its cell once and then records into it directly. *)
let cell t ~sched ~call =
  match Hashtbl.find_opt t.cells (sched, call) with
  | Some c -> c
  | None ->
    let c = { count = 0; sim_ns = 0; next = offset 0; samples = 0; wall_ns = 0 } in
    Hashtbl.add t.cells (sched, call) c;
    c

let timed (cell : cell) = cell.count = cell.next

let record_cell t (cell : cell) ~sim_ns ~wall_ns =
  let n = cell.count in
  if n = cell.next then begin
    let block = (n / sample_every) + 1 in
    cell.next <- (block * sample_every) + offset block
  end;
  cell.count <- n + 1;
  cell.sim_ns <- cell.sim_ns + sim_ns;
  if wall_ns >= 0 then begin
    cell.samples <- cell.samples + 1;
    cell.wall_ns <- cell.wall_ns + wall_ns
  end;
  t.total <- t.total + 1

let crossings t = t.total

let rows t =
  Hashtbl.fold
    (fun (sched, call) (c : cell) acc ->
      if c.count = 0 then acc
      else
        let wall_ns_per_call =
          if c.samples = 0 then 0. else float_of_int c.wall_ns /. float_of_int c.samples
        in
        { sched; call; count = c.count; sim_ns = c.sim_ns; samples = c.samples; wall_ns_per_call }
        :: acc)
    t.cells []
  |> List.sort (fun a b ->
         match String.compare a.sched b.sched with
         | 0 -> (
           match Int.compare b.count a.count with
           | 0 -> String.compare a.call b.call
           | c -> c)
         | c -> c)

let table_header =
  [ "scheduler"; "callback"; "crossings"; "sim ns/call"; "wall ns/call"; "timed"; "share" ]

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
        (if r.samples = 0 then "-" else Printf.sprintf "%.0f" r.wall_ns_per_call);
        string_of_int r.samples;
        Printf.sprintf "%.1f%%" (100.0 *. float_of_int r.count /. total);
      ])
    rs

