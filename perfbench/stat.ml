(* Order statistics over float samples. Quantiles interpolate linearly
   between closest ranks (the "type 7" rule of R and NumPy). *)

let quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Geometric mean: the summary of per-input ratios and times that does
   not let the largest input drown the others. *)
let geomean = function
  | [] -> nan
  | xs -> exp (mean (List.map log xs))
