let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stdev = function
  | [] | [ _ ] -> 0.0
  | xs ->
    let m = mean xs in
    let var =
      List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs
      /. float_of_int (List.length xs - 1)
    in
    sqrt var

let geomean = function
  | [] -> 0.0
  | xs ->
    let logs = List.map (fun x -> log (Float.max 1e-9 (Float.abs x))) xs in
    exp (mean logs)

let percent_diff ~baseline ~value =
  if baseline = 0.0 then 0.0 else (baseline -. value) /. baseline *. 100.0
