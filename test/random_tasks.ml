(* Generated workloads for the property tests: a random but finite task
   mix of compute bursts, sleeps, yields and channel traffic, drawn from
   one seeded PRNG so a failing seed reproduces the run. *)

module T = Kernsim.Task
module M = Kernsim.Machine

(* [tasks] tasks of [policy]; returns their pids, the channel they share
   and a ref holding the compute they demand in total *)
let spawn m ~policy ~rng ~tasks =
  let ch = M.new_chan m in
  let total_work = ref 0 in
  let pids =
    List.init tasks (fun i ->
        let steps = ref (5 + Stats.Prng.int rng 15) in
        let beh (_ : T.ctx) =
          if !steps = 0 then T.exit
          else begin
            decr steps;
            match Stats.Prng.int rng 6 with
            | 0 | 1 ->
              let d = 1 + Stats.Prng.int rng 800_000 in
              total_work := !total_work + d;
              T.compute d
            | 2 -> T.sleep (1 + Stats.Prng.int rng 300_000)
            | 3 -> T.wake ch
            | 4 -> T.yield
            | _ -> if Stats.Prng.int rng 2 = 0 then T.wake ch else T.block ch
          end
        in
        let affinity = if Stats.Prng.int rng 4 = 0 then Some [ Stats.Prng.int rng 8 ] else None in
        M.spawn m
          {
            (T.default_spec ~name:(Printf.sprintf "r%d" i) beh) with
            T.policy;
            nice = Stats.Prng.int rng 20 - 10;
            affinity;
          })
  in
  (pids, ch, total_work)

(* blocked-forever tasks are legitimate (a Block with no matching Wake);
   release them by flooding the channel at the end *)
let release m ch =
  let flood =
    let n = ref 64 in
    fun (_ : T.ctx) ->
      if !n = 0 then T.exit
      else begin
        decr n;
        T.wake ch
      end
  in
  ignore (M.spawn m (T.default_spec ~name:"flood" flood))

let unfinished m pids =
  List.filter (fun pid -> (Option.get (M.find_task m pid)).T.state <> T.Dead) pids

(* "r3 on cpu 7 only, blocked" for a failure message *)
let describe m pids =
  String.concat ", "
    (List.map
       (fun pid ->
         let t = Option.get (M.find_task m pid) in
         Format.asprintf "%s%s, %a" t.T.name
           (match t.T.affinity with
           | Some cpus -> " on cpu " ^ String.concat "," (List.map string_of_int cpus) ^ " only"
           | None -> "")
           T.pp_state t.T.state)
       pids)
