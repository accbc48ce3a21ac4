let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

let sorted xs =
  let ys = Array.copy xs in
  Array.sort compare ys;
  ys

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then 0.
  else
    let ys = sorted xs in
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = int_of_float (ceil rank) in
    if lo = hi then ys.(lo)
    else
      let w = rank -. float_of_int lo in
      ((1. -. w) *. ys.(lo)) +. (w *. ys.(hi))
