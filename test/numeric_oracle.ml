(* Plain numerical references: what the analytic gradients and the
   Gauss–Seidel rung of {!Pops_core.Sensitivity} are checked against. *)

(* Central-difference gradient, relative step [h] scaled by
   [max 1 |x_i|]. *)
let gradient ~f ?(h = 1e-5) x =
  let n = Array.length x in
  let g = Array.make n 0. in
  for i = 0 to n - 1 do
    let xi = x.(i) in
    let step = h *. Float.max 1. (Float.abs xi) in
    x.(i) <- xi +. step;
    let fp = f x in
    x.(i) <- xi -. step;
    let fm = f x in
    x.(i) <- xi;
    g.(i) <- (fp -. fm) /. (2. *. step)
  done;
  g

(* Iterate [step] until [distance x (step x) < tol] or [max_iter] steps;
   the final iterate and the number of steps taken. *)
let fixed_point ?(tol = 1e-9) ?(max_iter = 500) ~step ~distance x0 =
  let rec loop x iter =
    let x' = step x in
    if distance x x' < tol || iter + 1 >= max_iter then (x', iter + 1)
    else loop x' (iter + 1)
  in
  loop x0 0
