let section title =
  let line = String.make (String.length title + 4) '=' in
  Printf.printf "\n%s\n= %s =\n%s\n" line title line

let note s = Printf.printf "  %s\n" s

(* A cell counts as numeric for alignment purposes when it carries a digit
   and only number-shaped characters around it ("3.6", "+0.74%", "1.5x",
   "12us", "(74/320)"); "-" placeholders don't break a numeric column. *)
let numeric_cell cell =
  cell = "-"
  || (String.exists (fun c -> c >= '0' && c <= '9') cell
     && String.for_all
          (fun c ->
            (c >= '0' && c <= '9')
            || String.contains "+-.%/()xkMGuns " c)
          cell)

let table ~header rows =
  let all = header :: rows in
  let arity = List.length header in
  List.iter
    (fun row ->
      if List.length row <> arity then invalid_arg "Report.table: ragged rows")
    rows;
  let widths = Array.make arity 0 in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)))
    all;
  (* right-align a column when every data cell in it is number-shaped *)
  let right = Array.make arity (rows <> []) in
  List.iter
    (List.iteri (fun i cell -> if not (numeric_cell cell) then right.(i) <- false))
    rows;
  let print_row ?(pad_right = false) row =
    print_string "  ";
    List.iteri
      (fun i cell ->
        let gap = widths.(i) - String.length cell in
        if right.(i) && pad_right then print_string (String.make gap ' ');
        print_string cell;
        if i < arity - 1 then
          print_string
            (String.make ((if right.(i) && pad_right then 0 else gap) + 2) ' '))
      row;
    print_newline ()
  in
  print_row header;
  print_row (List.mapi (fun i _ -> String.make widths.(i) '-') header);
  List.iter (print_row ~pad_right:true) rows;
  flush stdout

let kv pairs =
  match pairs with
  | [] -> ()
  | _ ->
    let width = List.fold_left (fun w (k, _) -> max w (String.length k)) 0 pairs in
    List.iter
      (fun (k, v) ->
        (* continuation lines of a multi-line value stay aligned under the
           value column instead of jumping back to column zero *)
        match String.split_on_char '\n' v with
        | [] -> Printf.printf "  %s%s\n" k (String.make (width - String.length k) ' ')
        | first :: rest ->
          Printf.printf "  %s%s  %s\n" k (String.make (width - String.length k) ' ') first;
          List.iter (fun line -> Printf.printf "  %s  %s\n" (String.make width ' ') line) rest)
      pairs;
    flush stdout

let fmt_f1 v = Printf.sprintf "%.1f" v

let fmt_f2 v = Printf.sprintf "%.2f" v

let fmt_pct v = Printf.sprintf "%+.2f%%" v
