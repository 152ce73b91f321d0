(* A token is one immediate int: generation in bits 32..61, pid in bits
   12..31, cpu in bits 0..11.  Every field is non-negative, so a token is
   too and [none] (-1) can never be one. *)
type t = int

let cpu_bits = 12

let pid_bits = 20

let gen_bits = 30

let max_cpu = (1 lsl cpu_bits) - 1

let max_pid = (1 lsl pid_bits) - 1

let max_generation = (1 lsl gen_bits) - 1

let none = -1

let is_none t = t < 0

let pid t = if t < 0 then -1 else (t lsr cpu_bits) land max_pid

let cpu t = if t < 0 then -1 else t land max_cpu

let generation t = if t < 0 then -1 else t lsr (cpu_bits + pid_bits)

module Private = struct
  let max_pid = max_pid

  let max_cpu = max_cpu

  let max_generation = max_generation

  let describe t =
    if t < 0 then "sched(none)"
    else Printf.sprintf "sched(pid=%d cpu=%d gen=%d)" (pid t) (cpu t) (generation t)

  let check field v max bits =
    if v < 0 || v > max then
      invalid_arg (Printf.sprintf "Schedulable: %s %d does not fit in %d bits" field v bits)

  let create ~pid ~cpu ~gen =
    check "pid" pid max_pid pid_bits;
    check "cpu" cpu max_cpu cpu_bits;
    check "generation" gen max_generation gen_bits;
    (gen lsl (cpu_bits + pid_bits)) lor (pid lsl cpu_bits) lor cpu

  let next_generation g = if g >= max_generation then 1 else g + 1
end
