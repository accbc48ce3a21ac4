let golden_ratio = (sqrt 5. -. 1.) /. 2.

let section_min ?(tol = 1e-10) ?(max_iter = 200) ~f ~lo ~hi () =
  let rec loop a b x1 x2 f1 f2 iter =
    if b -. a < tol || iter >= max_iter then
      let xm = 0.5 *. (a +. b) in
      (xm, f xm)
    else if f1 < f2 then
      let b = x2 and x2 = x1 and f2 = f1 in
      let x1 = b -. (golden_ratio *. (b -. a)) in
      loop a b x1 x2 (f x1) f2 (iter + 1)
    else
      let a = x1 and x1 = x2 and f1 = f2 in
      let x2 = a +. (golden_ratio *. (b -. a)) in
      loop a b x1 x2 f1 (f x2) (iter + 1)
  in
  let a = min lo hi and b = max lo hi in
  let x1 = b -. (golden_ratio *. (b -. a)) in
  let x2 = a +. (golden_ratio *. (b -. a)) in
  loop a b x1 x2 (f x1) (f x2) 0
