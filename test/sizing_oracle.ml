(* Reference oracle for Pops_core.Sensitivity's constraint sizer: the
   nested search the KKT case analysis replaced.  A beta grid plus a
   golden section, and for each beta a safeguarded regula falsi on the
   sensitivity [a].  It calls only the public [Sensitivity.solve], so it
   shares no search code with the sizer under test. *)

module Path = Pops_delay.Path
module N = Pops_util.Numerics
module Diag = Pops_robust.Diag
module Watch = Pops_robust.Watch
module Sens = Pops_core.Sensitivity

let solve_beta ?accel ?a ?x0 ~beta path =
  (Sens.solve ?accel ?a ?x0 ~beta path).Sens.sizing

(* The minimum achievable worst-polarity delay: the minimax optimum may
   sit on either pure polarity or strictly between, so scan a small
   weight grid and refine by golden section. *)
let minimum_delay path =
  (* warm-start each solve from the previous optimum: nearby weights have
     nearby fixed points, so convergence takes a few sweeps instead of a
     cold-start descent *)
  let warm = ref None in
  let eval beta =
    let x = solve_beta ~a:0. ?x0:!warm ~beta path in
    warm := Some x;
    (Path.delay_worst path x, x, beta)
  in
  let best_of =
    List.fold_left
      (fun ((db, _, _) as best) ((d, _, _) as cand) -> if d < db then cand else best)
  in
  let candidates = List.map eval [ 0.5; 1.0; 0.0 ] in
  let _, _, beta_grid = best_of (List.hd candidates) (List.tl candidates) in
  let lo = Float.max 0. (beta_grid -. 0.5) and hi = Float.min 1. (beta_grid +. 0.5) in
  let beta_refined, _ =
    Pops_baselines.Golden.section_min ~tol:0.02 ~max_iter:10
      ~f:(fun beta ->
        let d, _, _ = eval beta in
        d)
      ~lo ~hi ()
  in
  best_of (eval beta_refined) candidates

let result_of path ~beta a sizing =
  { Sens.sizing; a; beta; delay = Path.delay_worst path sizing;
    area = Path.area path sizing }

(* For one polarity weight [beta]: root-find on [a] so the worst-polarity
   delay meets [tc] at minimum area; returns the best feasible candidate
   seen, or [None] when even [a = 0] misses [tc] under this weighting.
   The fixed point is warm-started from the previous iterate.

   The bracket step is a safeguarded regula falsi on delay(a) - tc
   (delay is monotone non-increasing in [a], so both bracket delays are
   tracked): the secant point homes in on the constraint in a couple of
   solves where plain bisection pays its full log2 schedule, and the
   midpoint fallback fires whenever the secant step degenerates, pins to
   an endpoint, or the previous step failed to halve the bracket — so
   the worst case stays the bisection bound.  The stopping rules are
   60 iterations, relative bracket width, or a feasible delay within
   0.1% of the constraint. *)
let bisect_for_beta ?accel ~beta path ~tc =
  let result_of = result_of path ~beta in
  let solve_at ?x0 a = solve_beta ?accel ~a ?x0 ~beta path in
  let x0 = solve_at 0. in
  let d0 = Path.delay_worst path x0 in
  if d0 > tc then None
  else begin
    let rec expand a_lo x =
      if a_lo < -1e6 then (a_lo, x)
      else
        let x' = solve_at ~x0:x a_lo in
        if Path.delay_worst path x' >= tc then (a_lo, x')
        else expand (a_lo *. 4.) x'
    in
    let a_lo, x_lo = expand (-1e-3) x0 in
    let d_lo = Path.delay_worst path x_lo in
    (* invariant: delay(a_hi) <= tc (feasible), delay(a_lo) >= tc
       (or a_lo is the expansion cap) *)
    let rec refine a_lo d_lo a_hi d_hi x_prev best iter force_bisect =
      if
        iter >= 60
        || a_hi -. a_lo < 1e-9 *. Float.max 1. (Float.abs a_lo)
        || best.Sens.delay >= tc *. 0.999
      then begin
        if
          a_hi -. a_lo < 1e-9 *. Float.max 1. (Float.abs a_lo)
          && best.Sens.delay < tc *. 0.99
        then
          Watch.emit
            (Diag.makef Diag.Bracket_collapse ~subject:"bisect_for_beta"
               "sensitivity bracket collapsed at a = %g with delay %.3f ps \
                well under the %.3f ps target"
               a_lo best.Sens.delay tc);
        best
      end
      else begin
        let w = a_hi -. a_lo in
        let a_mid =
          if force_bisect then 0.5 *. (a_lo +. a_hi)
          else
            let f_lo = d_lo -. tc and f_hi = d_hi -. tc in
            let denom = f_lo -. f_hi in
            let a_int = a_lo +. (f_lo /. denom *. w) in
            if
              Float.is_finite a_int
              && a_int > a_lo +. (0.01 *. w)
              && a_int < a_hi -. (0.01 *. w)
            then a_int
            else 0.5 *. (a_lo +. a_hi)
        in
        let x = solve_at ~x0:x_prev a_mid in
        let d = Path.delay_worst path x in
        if d <= tc then
          let cand = result_of a_mid x in
          let best = if cand.Sens.area < best.Sens.area then cand else best in
          refine a_lo d_lo a_mid d x best (iter + 1) (a_mid -. a_lo > 0.5 *. w)
        else refine a_mid d a_hi d_hi x best (iter + 1) (a_hi -. a_mid > 0.5 *. w)
      end
    in
    Some (refine a_lo d_lo 0. d0 x_lo (result_of 0. x0) 0 false)
  end

(* The constraint is on the worst polarity, so the minimum-area sizing
   satisfies the KKT conditions of "min area s.t. rise <= tc, fall <=
   tc": when one constraint binds, the pure single-polarity link
   equations are exact; when both bind, the optimal weighting lies
   between — area(beta) is unimodal, so after a coarse grid a short
   golden-section refinement on [beta] finds it. *)
let size_for_constraint ?(tol_ps = 0.01) path ~tc =
  let tmin, x_tmin, beta_tmin = minimum_delay path in
  let grid = [ 1.0; 0.0; 0.5; beta_tmin ] in
  if tc < tmin -. tol_ps then Error (`Infeasible tmin)
  else begin
    let x_min_area = Path.min_sizing path in
    let tmax = Path.delay_worst path x_min_area in
    if tc >= tmax then Ok (result_of path ~beta:0.5 Float.neg_infinity x_min_area)
    else begin
      let cache = Hashtbl.create 16 in
      let candidate beta =
        let key = int_of_float (beta *. 1000.) in
        match Hashtbl.find_opt cache key with
        | Some c -> c
        | None ->
          let c = bisect_for_beta ~beta path ~tc in
          Hashtbl.replace cache key c;
          c
      in
      let area_of beta =
        match candidate beta with Some c -> c.Sens.area | None -> Float.infinity
      in
      let best_beta_on_grid =
        List.fold_left
          (fun best beta -> if area_of beta < area_of best then beta else best)
          1.0 grid
      in
      (* golden-section refinement around the best grid point *)
      let lo = Float.max 0. (best_beta_on_grid -. 0.5) in
      let hi = Float.min 1. (best_beta_on_grid +. 0.5) in
      let refined_beta, _ =
        Pops_baselines.Golden.section_min ~tol:0.04 ~max_iter:8 ~f:area_of ~lo ~hi ()
      in
      let all_candidates =
        List.filter_map candidate (refined_beta :: grid)
        @ List.filter_map Fun.id (Hashtbl.fold (fun _ c acc -> c :: acc) cache [])
      in
      match all_candidates with
      | [] ->
        (* tc within tol of tmin: return the fastest sizing *)
        Ok (result_of path ~beta:beta_tmin 0. x_tmin)
      | first :: rest ->
        Ok
          (List.fold_left
             (fun best c -> if c.Sens.area < best.Sens.area then c else best)
             first rest)
    end
  end
