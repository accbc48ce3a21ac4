module Path = Pops_delay.Path
module Model = Pops_delay.Model
module N = Pops_util.Numerics
module Diag = Pops_robust.Diag
module Watch = Pops_robust.Watch
module Fault = Pops_robust.Fault
module Budget = Pops_robust.Budget

type solve_stats = { iterations : int; residual : float }

(* One backward Gauss-Seidel sweep of the link equations (eq. 6): solve
   dT/dx_j = a w_j for x_j with every other size frozen at its current
   value (see docs/model.md for the derivation), for a weighted
   combination of the path's two polarity variants (same stage geometry,
   per-stage coefficients from the compiled kernel's own/flip tables).
   For the single-polarity objective the other weight is 0; for the
   balanced rise/fall objective both are 1/2 — the averaged delay is
   itself a sum of per-stage terms, so the link equation keeps its
   closed form with coefficient bundles averaged.  Processing
   j = n-1 .. 1 uses the freshly updated downstream size, exactly the
   paper's "backward from the output, where the terminal load is known"
   iteration.

   The sweep updates [x] in place and allocates nothing: every
   coefficient is an unboxed read from the kernel's structure-of-arrays
   tables ([v] pre-zeroed when the slope term is off, [m] when coupling
   is off, so the closed form needs no option branches), and the squared
   denominators are explicit multiplies. *)
(* atomic: sweeps run concurrently on pool domains (protocol candidates,
   Pareto sweeps) and the bench reads the counter for its cost columns *)
let sweep_counter = Atomic.make 0

let sweeps_performed () = Atomic.get sweep_counter

let no_skip _ = false

let sweep_kernel (path : Path.t) ~w_own ~w_flip ~a ~skip x =
  Atomic.incr sweep_counter;
  let k = path.Path.kernel in
  let n = k.Path.n in
  let tau = path.Path.tech.Pops_process.Tech.tau in
  for j = n - 1 downto 1 do
    if not (skip j) then begin
      let next_j = if j = n - 1 then path.Path.c_out else x.(j + 1) in
      let k_j = k.Path.kbranch.(j) +. next_j in
      (* the two polarity contributions are spelled out (rather than
         shared through a local function) so [num]/[den] stay unboxed:
         a closure capturing them would heap-box every accumulation *)
      let num = ref 0. and den = ref 0. in
      if w_own <> 0. then begin
        let s = k.Path.s_own and v = k.Path.v_own and m = k.Path.m_own in
        let l_prev = (k.Path.p.(j - 1) *. x.(j - 1)) +. k.Path.kbranch.(j - 1) +. x.(j) in
        let cm_prev = m.(j - 1) *. x.(j - 1) in
        let dp = cm_prev +. l_prev in
        let k1 = 1. +. (2. *. cm_prev *. cm_prev /. (dp *. dp)) in
        let upstream = s.(j - 1) *. tau /. (2. *. x.(j - 1)) *. (k1 +. v.(j)) in
        let l_j = (k.Path.p.(j) *. x.(j)) +. k_j in
        let cm_j = m.(j) *. x.(j) in
        let dj = cm_j +. l_j in
        let e2 = s.(j) *. tau *. k_j *. m.(j) *. m.(j) /. (dj *. dj) in
        let v_next = if j + 1 < n then v.(j + 1) else 0. in
        num := !num +. (w_own *. s.(j) *. (1. +. v_next));
        den := !den +. (w_own *. (upstream -. e2))
      end;
      if w_flip <> 0. then begin
        let s = k.Path.s_flip and v = k.Path.v_flip and m = k.Path.m_flip in
        let l_prev = (k.Path.p.(j - 1) *. x.(j - 1)) +. k.Path.kbranch.(j - 1) +. x.(j) in
        let cm_prev = m.(j - 1) *. x.(j - 1) in
        let dp = cm_prev +. l_prev in
        let k1 = 1. +. (2. *. cm_prev *. cm_prev /. (dp *. dp)) in
        let upstream = s.(j - 1) *. tau /. (2. *. x.(j - 1)) *. (k1 +. v.(j)) in
        let l_j = (k.Path.p.(j) *. x.(j)) +. k_j in
        let cm_j = m.(j) *. x.(j) in
        let dj = cm_j +. l_j in
        let e2 = s.(j) *. tau *. k_j *. m.(j) *. m.(j) /. (dj *. dj) in
        let v_next = if j + 1 < n then v.(j + 1) else 0. in
        num := !num +. (w_flip *. s.(j) *. (1. +. v_next));
        den := !den +. (w_flip *. (upstream -. e2))
      end;
      (* the sensitivity target is per unit of WIDTH (eq. 5 with the
         paper's Sigma-W objective): dT/dW_j = a  <=>  dT/dx_j = a * w_j
         with w_j the stage's area-per-fF *)
      let denom = !den -. (a *. k.Path.aw.(j)) in
      let lo = k.Path.lo.(j) and hi = k.Path.hi.(j) in
      x.(j) <-
        (if denom <= 1e-12 then hi
         else
           let x2 = tau *. k_j *. !num /. (2. *. denom) in
           (* N.clamp, inlined so the floats stay unboxed in the loop *)
           Float.min hi (Float.max lo (sqrt x2)))
    end
  done

(* --- per-domain scratch ------------------------------------------- *)

(* The fixed point needs a handful of working vectors (current and
   previous iterate, the Aitken history and candidate).  One scratch
   lives per domain (Domain.DLS), sized to the largest path seen there,
   so repeated solves — the constraint bisection warm-starts dozens per
   path — allocate nothing after the first.  The busy flag covers the
   (currently impossible) re-entrant case by falling back to a fresh
   scratch instead of corrupting the one in flight; tasks on the PR 2
   domain pool each run on their own domain, so scratches are never
   shared. *)
type scratch = {
  mutable cap : int;
  mutable cur : float array;
  mutable prev : float array;
  mutable h0 : float array;
  mutable h1 : float array;
  mutable h2 : float array;
  mutable cand : float array;
  mutable cand_next : float array;
  mutable busy : bool;
}

let make_scratch cap =
  {
    cap;
    cur = Array.make cap 0.;
    prev = Array.make cap 0.;
    h0 = Array.make cap 0.;
    h1 = Array.make cap 0.;
    h2 = Array.make cap 0.;
    cand = Array.make cap 0.;
    cand_next = Array.make cap 0.;
    busy = false;
  }

let scratch_key = Domain.DLS.new_key (fun () -> make_scratch 0)

let with_scratch n f =
  let sc = Domain.DLS.get scratch_key in
  if sc.busy then f (make_scratch n)
  else begin
    if sc.cap < n then begin
      let fresh = make_scratch (max n (2 * sc.cap)) in
      fresh.busy <- sc.busy;
      Domain.DLS.set scratch_key fresh;
      sc.cap <- fresh.cap;
      sc.cur <- fresh.cur;
      sc.prev <- fresh.prev;
      sc.h0 <- fresh.h0;
      sc.h1 <- fresh.h1;
      sc.h2 <- fresh.h2;
      sc.cand <- fresh.cand;
      sc.cand_next <- fresh.cand_next
    end;
    sc.busy <- true;
    Fun.protect ~finally:(fun () -> sc.busy <- false) (fun () -> f sc)
  end

let dist_n n a b =
  let d = ref 0. in
  for i = 0 to n - 1 do
    let x = Float.abs (a.(i) -. b.(i)) in
    if x > !d then d := x
  done;
  !d

(* [dist_n] deliberately ignores NaN components (the [>] comparison is
   false), so a poisoned iterate can "converge" with a zero distance —
   the watchdog therefore scans the final iterate explicitly. *)
let nonfinite_index x =
  let n = Array.length x in
  let rec go i =
    if i >= n then -1 else if Float.is_finite x.(i) then go (i + 1) else i
  in
  go 0

(* --- the accelerated fixed point ----------------------------------- *)

(* Plain mode ([accel = false]) replicates Numerics.fixed_point over the
   clamp-then-sweep step exactly: same iterates bit for bit, same
   iteration count, same stopping rule (max sizing change < tol, or
   max_iter sweeps).

   Accelerated mode additionally tries a component-wise Aitken Δ²
   extrapolation after every three consecutive plain iterates.  The
   candidate is accepted only if one sweep from it contracts strictly
   better than the plain sequence's latest step (its residual is
   smaller); otherwise it is discarded and the plain sequence continues
   from its own, bitwise-untouched iterate — so when no candidate is
   ever accepted the accelerated solver walks the exact plain
   trajectory, just with extra (counted) probe sweeps.  Either way the
   result satisfies the same residual-< tol contract; acceleration can
   only change how many sweeps it takes to get there. *)
let solve_weighted ?budget ?(damping = 1.) ~accel ~w_own ~w_flip ~a ~skip ~tol
    ~max_iter ~with_residual path x0 =
  let n = Path.length path in
  with_scratch n @@ fun sc ->
  let cur = sc.cur and prev = sc.prev in
  Array.blit x0 0 cur 0 n;
  let iter = ref 0 in
  let converged = ref false in
  let hist = ref 0 in
  let in_budget () =
    match budget with None -> true | Some b -> not (Budget.exhausted b)
  in
  let spend k = match budget with None -> () | Some b -> Budget.spend b k in
  (* divergence watchdog: a contracting fixed point shrinks the step; a
     step that keeps growing past any plausible sizing scale is runaway.
     The thresholds are astronomical on purpose — healthy solves (even
     slow ones) never trip them, so the watchdog cannot perturb the
     bit-identical healthy trajectory. *)
  let d_prev = ref Float.infinity in
  let grow = ref 0 in
  let diverged = ref false in
  while (not !converged) && (not !diverged) && !iter < max_iter && in_budget ()
  do
    Array.blit cur 0 prev 0 n;
    Path.clamp_into path cur cur;
    sweep_kernel path ~w_own ~w_flip ~a ~skip cur;
    incr iter;
    spend 1;
    (* under-relaxation (the ladder's damped rung): blend the sweep with
       the previous iterate.  [damping = 1.] must stay bit-identical to
       the plain sweep, hence the guard. *)
    if damping <> 1. then
      for i = 0 to n - 1 do
        cur.(i) <- prev.(i) +. (damping *. (cur.(i) -. prev.(i)))
      done;
    let d = dist_n n prev cur in
    if d >= !d_prev then incr grow else grow := 0;
    d_prev := d;
    if (!grow >= 8 && d > 1e6) || d > 1e12 then diverged := true;
    if d < tol then converged := true
    else if accel then begin
      let t = sc.h0 in
      sc.h0 <- sc.h1;
      sc.h1 <- sc.h2;
      sc.h2 <- t;
      Array.blit cur 0 sc.h2 0 n;
      incr hist;
      if !hist >= 3 && !iter < max_iter then begin
        let cand = sc.cand and cand_next = sc.cand_next in
        for i = 0 to n - 1 do
          let x0i = sc.h0.(i) and x1i = sc.h1.(i) and x2i = sc.h2.(i) in
          let dden = x2i -. (2. *. x1i) +. x0i in
          let dx = x2i -. x1i in
          let y = x2i -. (dx *. dx /. dden) in
          cand.(i) <- (if Float.is_finite y then y else x2i)
        done;
        Path.clamp_into path cand cand;
        Array.blit cand 0 cand_next 0 n;
        sweep_kernel path ~w_own ~w_flip ~a ~skip cand_next;
        incr iter;
        let dc = dist_n n cand cand_next in
        if dc < d then begin
          Array.blit cand_next 0 cur 0 n;
          if dc < tol then converged := true
        end;
        (* accepted or not, restart the history: Δ² needs three iterates
           of a single geometric tail, and probing every window turned
           out to burn more sweeps than the extra attempts recover *)
        hist := 0
      end
    end
  done;
  let residual =
    if not with_residual then Float.nan
    else begin
      Array.blit cur 0 sc.cand 0 n;
      Path.clamp_into path sc.cand sc.cand;
      sweep_kernel path ~w_own ~w_flip ~a ~skip sc.cand;
      dist_n n cur sc.cand
    end
  in
  let x = Array.sub cur 0 n in
  let status =
    match nonfinite_index x with
    | i when i >= 0 -> `Nonfinite i
    | _ ->
      if !diverged then `Diverged
      else if !converged then `Converged
      else `Stalled
  in
  (x, !iter, residual, status)

(* --- the fallback ladder ------------------------------------------- *)

type rung = Accelerated | Plain | Damped | Tmax_safe

let rung_name = function
  | Accelerated -> "accelerated"
  | Plain -> "plain"
  | Damped -> "damped"
  | Tmax_safe -> "tmax-safe"

(* injection-point suffix; Tmax_safe has no solve to fault *)
let rung_tag = function
  | Accelerated -> "accel"
  | Plain -> "plain"
  | Damped -> "damped"
  | Tmax_safe -> "tmax-safe"

type ladder_result = {
  lx : float array;
  lstats : solve_stats;
  lrung : rung;
  ldiags : Diag.t list;
}

(* The Tmax-safe bottom of the ladder: every free interior stage at its
   minimum drive.  Always valid (it is the sizing defining the Tmax
   bound), needs no solver, and preserves the drive slot and any frozen
   stages from [x0]. *)
let tmax_safe_sizing ~skip path x0 =
  let n = Path.length path in
  let y = Array.copy x0 in
  let mins = Path.min_sizing path in
  for j = 1 to n - 1 do
    if not (skip j) then y.(j) <- mins.(j)
  done;
  Path.clamp_into path y y;
  (* a poisoned frozen slot would survive the copy; scrub it *)
  for j = 0 to n - 1 do
    if not (Float.is_finite y.(j)) then y.(j) <- mins.(j)
  done;
  y

(* Walk the documented fallback ladder: Aitken-accelerated -> plain
   Gauss-Seidel -> damped (under-relaxed, 0.5) sweep -> Tmax-safe
   minimum-drive sizing.  A rung fails on a non-finite iterate or a
   diverging residual (or a forced [solver.*] fault); a rung that merely
   runs out of sweeps keeps the historical contract — report and return
   the last iterate — so fault-free solves stay bit-identical to the
   pre-ladder code.  Every event is recorded in the returned diagnostics
   and emitted to the ambient {!Watch} collector. *)
let solve_weighted_ladder ?budget ~accel ~w_own ~w_flip ~a ~skip ~tol ~max_iter
    ~with_residual path x0 =
  let diags = ref [] in
  let note d =
    diags := d :: !diags;
    Watch.emit d
  in
  let attempt rung =
    let tag = rung_tag rung in
    if Fault.fire ("solver.diverge." ^ tag) then begin
      note
        (Diag.makef Diag.Solver_divergence
           ~subject:("solver.diverge." ^ tag)
           "forced divergence on the %s rung (fault injection)"
           (rung_name rung));
      None
    end
    else begin
      let x0 =
        if Fault.fire ("solver.nan." ^ tag) then begin
          note
            (Diag.makef Diag.Fault_injected ~severity:Diag.Info
               ~subject:("solver.nan." ^ tag)
               "initial iterate poisoned with NaN (fault injection)");
          let p = Array.copy x0 in
          p.(Array.length p - 1) <- Float.nan;
          p
        end
        else x0
      in
      let x, iterations, residual, status =
        solve_weighted ?budget
          ~damping:(if rung = Damped then 0.5 else 1.)
          ~accel:(rung = Accelerated) ~w_own ~w_flip ~a ~skip ~tol ~max_iter
          ~with_residual path x0
      in
      let stats = { iterations; residual } in
      match status with
      | `Converged -> Some (x, stats)
      | `Stalled -> (
        match budget with
        | Some b when Budget.exhausted b ->
          note (Budget.diag b);
          Some (x, stats)
        | _ ->
          note
            (Diag.makef Diag.Solver_stalled ~subject:(rung_name rung)
               "fixed point not converged after %d sweeps (last step %g fF)"
               iterations residual);
          Some (x, stats))
      | `Nonfinite i ->
        note
          (Diag.makef Diag.Solver_nonfinite ~subject:(rung_name rung)
             "non-finite sizing at stage %d after %d sweeps" i iterations);
        None
      | `Diverged ->
        note
          (Diag.makef Diag.Solver_divergence ~subject:(rung_name rung)
             "residual diverging after %d sweeps" iterations);
        None
    end
  in
  let rungs = if accel then [ Accelerated; Plain; Damped ] else [ Plain; Damped ] in
  let rec descend fell = function
    | [] ->
      note
        (Diag.make Diag.Solver_fallback ~subject:(rung_name Tmax_safe)
           "all solver rungs failed; using the Tmax-safe minimum-drive sizing");
      {
        lx = tmax_safe_sizing ~skip path x0;
        lstats = { iterations = 0; residual = Float.nan };
        lrung = Tmax_safe;
        ldiags = List.rev !diags;
      }
    | rung :: rest -> (
      match attempt rung with
      | Some (x, stats) ->
        if fell then
          note
            (Diag.makef Diag.Solver_fallback ~subject:(rung_name rung)
               "solver degraded to the %s rung" (rung_name rung));
        { lx = x; lstats = stats; lrung = rung; ldiags = List.rev !diags }
      | None -> descend true rest)
  in
  descend false rungs

let check_a a = if a > 0. then invalid_arg "Sensitivity: a must be <= 0."

let solve ?budget ?(accel = true) ?(a = 0.) ?(frozen = []) ?x0 ?(tol = 1e-6)
    ?(max_iter = 300) path =
  check_a a;
  let x0 = Option.value x0 ~default:(Path.min_sizing path) in
  let skip = match frozen with [] -> no_skip | l -> fun j -> List.mem j l in
  let r =
    solve_weighted_ladder ?budget ~accel ~w_own:1. ~w_flip:0. ~a ~skip ~tol
      ~max_iter ~with_residual:true path x0
  in
  (r.lx, r.lstats)

(* Weighted two-polarity solve: [beta] is the weight of the path's own
   polarity (1 = pure own-polarity link equations, 0 = pure flipped,
   0.5 = balanced). *)
let solve_beta_ladder ?budget ?(accel = true) ?(a = 0.) ?(frozen = []) ?x0
    ~beta path =
  check_a a;
  let x0 = Option.value x0 ~default:(Path.min_sizing path) in
  let skip = match frozen with [] -> no_skip | l -> fun j -> List.mem j l in
  let w_own, w_flip =
    if beta >= 0.999 then (1., 0.)
    else if beta <= 0.001 then (0., 1.)
    else (beta, 1. -. beta)
  in
  (* 1e-4 fF is ~0.004% of the minimum drive: far below anything the
     delay model can resolve, at roughly half the sweeps of 1e-6 *)
  solve_weighted_ladder ?budget ~accel ~w_own ~w_flip ~a ~skip ~tol:1e-4
    ~max_iter:300 ~with_residual:false path x0

let solve_beta ?accel ?a ?frozen ?x0 ~beta path =
  (solve_beta_ladder ?accel ?a ?frozen ?x0 ~beta path).lx

let solve_worst ?accel ?a ?frozen ?x0 path =
  solve_beta ?accel ?a ?frozen ?x0 ~beta:0.5 path

(* --- robust entry points ------------------------------------------- *)

type robust_report = {
  sizing : float array;
  stats : solve_stats;
  fallback : rung;
  diags : Diag.t list;
}

let solve_robust ?budget ?accel ?a ?frozen ?x0 ?(beta = 0.5) path =
  let r = solve_beta_ladder ?budget ?accel ?a ?frozen ?x0 ~beta path in
  { sizing = r.lx; stats = r.lstats; fallback = r.lrung; diags = r.ldiags }

let solve_o ?budget ?accel ?a ?frozen ?x0 ?beta path =
  match solve_robust ?budget ?accel ?a ?frozen ?x0 ?beta path with
  | r -> Pops_robust.Outcome.make r.sizing r.diags
  | exception Diag.Fatal d -> Pops_robust.Outcome.Failed d
  | exception Invalid_argument msg ->
    Pops_robust.Outcome.Failed (Diag.make Diag.Invalid_input msg)

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
    N.golden_section_min ~tol:0.02 ~max_iter:10
      ~f:(fun beta ->
        let d, _, _ = eval beta in
        d)
      ~lo ~hi ()
  in
  best_of (eval beta_refined) candidates

let solve_trace ?(a = 0.) ?(tol = 1e-6) ?(max_iter = 300) path =
  check_a a;
  let x0 = Path.min_sizing path in
  (* the plain (unaccelerated) balanced iteration: the trace reproduces
     the paper's Fig. 1 trajectory, so no probe sweeps may appear in it *)
  let step x =
    let y = Path.clamp_sizing path x in
    sweep_kernel path ~w_own:0.5 ~w_flip:0.5 ~a ~skip:no_skip y;
    y
  in
  N.fixed_point_trace ~tol ~max_iter ~step ~distance:N.distance_inf x0

let delay_of_a path a =
  let x = solve_worst ~a path in
  Path.delay_worst path x

type constraint_result = {
  sizing : float array;
  a : float;
  delay : float;
  area : float;
}

let result_of path a sizing =
  { sizing; a; delay = Path.delay_worst path sizing; area = Path.area path sizing }

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
   unchanged (60 iterations, relative bracket width, or a feasible delay
   within 0.1% of the constraint). *)
let bisect_for_beta ?accel ~beta path ~tc =
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
        || best.delay >= tc *. 0.999
      then begin
        (* a bracket that shrank to nothing while the best delay is still
           well under target means delay(a) jumped across [tc] (a clamp
           kicked in, or the fixed point changed basin): the result is
           valid but conservative, so surface it *)
        if
          a_hi -. a_lo < 1e-9 *. Float.max 1. (Float.abs a_lo)
          && best.delay < tc *. 0.99
        then
          Watch.emit
            (Diag.makef Diag.Bracket_collapse ~subject:"bisect_for_beta"
               "sensitivity bracket collapsed at a = %g with delay %.3f ps \
                well under the %.3f ps target"
               a_lo best.delay tc);
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
          let cand = result_of path a_mid x in
          let best = if cand.area < best.area then cand else best in
          refine a_lo d_lo a_mid d x best (iter + 1) (a_mid -. a_lo > 0.5 *. w)
        else refine a_mid d a_hi d_hi x best (iter + 1) (a_hi -. a_mid > 0.5 *. w)
      end
    in
    Some (refine a_lo d_lo 0. d0 x_lo (result_of path 0. x0) 0 false)
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
    if tc >= tmax then Ok (result_of path Float.neg_infinity x_min_area)
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
        match candidate beta with Some c -> c.area | None -> Float.infinity
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
        Pops_util.Numerics.golden_section_min ~tol:0.04 ~max_iter:8 ~f:area_of ~lo
          ~hi ()
      in
      let all_candidates =
        List.filter_map candidate (refined_beta :: grid)
        @ List.filter_map Fun.id (Hashtbl.fold (fun _ c acc -> c :: acc) cache [])
      in
      match all_candidates with
      | [] ->
        (* tc within tol of tmin: return the fastest sizing *)
        Ok (result_of path 0. x_tmin)
      | first :: rest ->
        Ok
          (List.fold_left
             (fun best c -> if c.area < best.area then c else best)
             first rest)
    end
  end

let sutherland ?(iters = 4) path ~tc =
  let n = Path.length path in
  let x = ref (Path.min_sizing path) in
  for _ = 1 to iters do
    let per = Path.delay_per_stage path !x in
    let slopes = Array.make n path.Path.input_slope in
    for i = 1 to n - 1 do
      slopes.(i) <- snd per.(i - 1)
    done;
    let d0 = fst per.(0) in
    let budget = Float.max 0.1 ((tc -. d0) /. float_of_int (max 1 (n - 1))) in
    let y = Path.clamp_sizing path !x in
    for j = n - 1 downto 1 do
      let cell = path.Path.stages.(j).Path.cell in
      let next = if j = n - 1 then path.Path.c_out else y.(j + 1) in
      let fixed_load = path.Path.stages.(j).Path.branch +. next in
      let stage_delay xj =
        let cload = Pops_cell.Cell.cpar cell ~cin:xj +. fixed_load in
        fst
          (Model.stage_delay ~opts:path.Path.opts cell
             ~edge_out:path.Path.edges.(j) ~tau_in:slopes.(j) ~cin:xj ~cload)
      in
      let lo = Pops_cell.Cell.min_cin cell in
      let hi = 4096. *. lo in
      y.(j) <-
        (if stage_delay lo <= budget then lo
         else if stage_delay hi >= budget then hi
         else N.bisect ~caller:"sutherland" ~tol:1e-6
                ~f:(fun xj -> stage_delay xj -. budget)
                ~lo ~hi ())
    done;
    x := y
  done;
  !x
