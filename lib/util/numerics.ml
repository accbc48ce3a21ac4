exception No_bracket of string

(* Safeguarded regula falsi (false position with a bisection fallback).
   Each step first tries the secant point of the bracket — superlinear
   near a simple root, where plain bisection grinds through its fixed
   log2((hi-lo)/tol) evaluations — and falls back to the midpoint
   whenever the secant step degenerates (non-finite, or pinned within 1%
   of an endpoint) or the previous step failed to halve the bracket
   (regula falsi's stuck-endpoint mode).  The fallback guarantees the
   bracket width at least halves every other iteration, so the classic
   bisection bound still holds.  The contract is unchanged: a width
   [< tol] (or [max_iter]) stops and returns the bracket midpoint. *)
let bisect ?(caller = "bisect") ?(tol = 1e-12) ?(max_iter = 200) ~f ~lo ~hi () =
  let flo = f lo and fhi = f hi in
  if flo = 0. then lo
  else if fhi = 0. then hi
  else if flo *. fhi > 0. then
    raise (No_bracket (Printf.sprintf "%s: f(%g)=%g, f(%g)=%g" caller lo flo hi fhi))
  else
    let rec loop lo hi flo fhi iter force_bisect =
      if hi -. lo < tol || iter >= max_iter then 0.5 *. (lo +. hi)
      else
        let w = hi -. lo in
        let x =
          if force_bisect then 0.5 *. (lo +. hi)
          else
            let x = lo +. (flo /. (flo -. fhi) *. w) in
            if Float.is_finite x && x > lo +. (0.01 *. w) && x < hi -. (0.01 *. w)
            then x
            else 0.5 *. (lo +. hi)
        in
        let fx = f x in
        if fx = 0. then x
        else if flo *. fx < 0. then
          loop lo x flo fx (iter + 1) (x -. lo > 0.5 *. w)
        else loop x hi fx fhi (iter + 1) (hi -. x > 0.5 *. w)
    in
    if lo <= hi then loop lo hi flo fhi 0 false else loop hi lo fhi flo 0 false

let newton ?(tol = 1e-12) ?(max_iter = 60) ~f ~df ~x0 () =
  let rec loop x iter =
    if iter >= max_iter then None
    else
      let fx = f x in
      if Float.abs fx < tol then Some x
      else
        let d = df x in
        if Float.abs d < 1e-300 then None
        else
          let x' = x -. (fx /. d) in
          if not (Float.is_finite x') then None
          else if Float.abs (x' -. x) < tol *. (1. +. Float.abs x') then Some x'
          else loop x' (iter + 1)
  in
  loop x0 0

let golden_ratio = (sqrt 5. -. 1.) /. 2.

let golden_section_min ?(tol = 1e-10) ?(max_iter = 200) ~f ~lo ~hi () =
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

let fixed_point ?(tol = 1e-9) ?(max_iter = 500) ~step ~distance x0 =
  let rec loop x iter =
    let x' = step x in
    if distance x x' < tol || iter + 1 >= max_iter then (x', iter + 1)
    else loop x' (iter + 1)
  in
  loop x0 0

let fixed_point_trace ?(tol = 1e-9) ?(max_iter = 500) ~step ~distance x0 =
  let rec loop x iter acc =
    let x' = step x in
    let acc = x' :: acc in
    if distance x x' < tol || iter + 1 >= max_iter then List.rev acc
    else loop x' (iter + 1) acc
  in
  loop x0 0 [ x0 ]

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

let distance_inf a b =
  assert (Array.length a = Array.length b);
  let d = ref 0. in
  Array.iteri (fun i ai -> d := Float.max !d (Float.abs (ai -. b.(i)))) a;
  !d

let clamp ~lo ~hi x = Float.min hi (Float.max lo x)

let close ?(rtol = 1e-9) ?(atol = 1e-12) a b =
  Float.abs (a -. b) <= atol +. (rtol *. Float.max (Float.abs a) (Float.abs b))

let linspace a b n =
  assert (n >= 2);
  let h = (b -. a) /. float_of_int (n - 1) in
  Array.init n (fun i -> a +. (float_of_int i *. h))

let logspace a b n =
  assert (a > 0. && b > 0.);
  Array.map exp (linspace (log a) (log b) n)
