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

(* The solvers need a handful of working vectors: the iterate and, for
   Gauss-Seidel, the previous one; for Newton, the trial point, the
   gradient, the tridiagonal Hessian, the Thomas multipliers, the step
   and the active-set mask.  One scratch lives per domain (Domain.DLS),
   sized to the largest path seen there, so repeated solves — the
   constraint search warm-starts dozens per path — allocate nothing
   after the first.  The busy flag covers the (currently impossible)
   re-entrant case by falling back to a fresh scratch instead of
   corrupting the one in flight; tasks on the domain pool each run on
   their own domain, so scratches are never shared. *)
type vectors = {
  cur : float array;  (** the iterate *)
  prev : float array;  (** previous iterate / Newton trial point *)
  grad : float array;  (** objective gradient at [cur] *)
  diag : float array;  (** Hessian diagonal *)
  off : float array;  (** Hessian super-diagonal *)
  mult : float array;  (** Thomas multipliers *)
  dir : float array;  (** Newton step *)
  free : bool array;  (** the step's active set *)
}

let make_vectors cap =
  let v () = Array.make cap 0. in
  { cur = v (); prev = v (); grad = v (); diag = v (); off = v (); mult = v ();
    dir = v (); free = Array.make cap false }

type scratch = { mutable cap : int; mutable vec : vectors; mutable busy : bool }

let scratch_key =
  Domain.DLS.new_key (fun () -> { cap = 0; vec = make_vectors 0; busy = false })

let with_scratch n f =
  let sc = Domain.DLS.get scratch_key in
  if sc.busy then f (make_vectors n)
  else begin
    if sc.cap < n then begin
      sc.cap <- max n (2 * sc.cap);
      sc.vec <- make_vectors sc.cap
    end;
    sc.busy <- true;
    Fun.protect ~finally:(fun () -> sc.busy <- false) (fun () -> f sc.vec)
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

let solve_status x ~diverged ~converged =
  match nonfinite_index x with
  | i when i >= 0 -> `Nonfinite i
  | _ ->
    if diverged then `Diverged else if converged then `Converged else `Stalled

(* --- Gauss-Seidel: the plain and damped rungs ---------------------- *)

(* Replicates Numerics.fixed_point over the clamp-then-sweep step
   exactly: same iterates bit for bit, same iteration count, same
   stopping rule (max sizing change < tol, or max_iter sweeps). *)
let gauss_seidel ?budget ~damping ~w_own ~w_flip ~a ~skip ~tol ~max_iter path x0 =
  let n = Path.length path in
  with_scratch n @@ fun v ->
  let cur = v.cur and prev = v.prev in
  Array.blit x0 0 cur 0 n;
  let iter = ref 0 in
  let converged = ref false in
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
  let last_step = ref Float.nan in
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
    last_step := d;
    if d >= !d_prev then incr grow else grow := 0;
    d_prev := d;
    if (!grow >= 8 && d > 1e6) || d > 1e12 then diverged := true;
    if d < tol then converged := true
  done;
  let x = Array.sub cur 0 n in
  (x, !iter, !last_step, solve_status x ~diverged:!diverged ~converged:!converged)

(* --- Newton: the first rung ---------------------------------------- *)

(* The link equations are the stationarity conditions of

     L(x) = w_own T_own(x) + w_flip T_flip(x) - a sum_j aw_j x_j

   (the sweep solves dL/dx_j = 0 for x_j with its neighbours frozen), so
   the first rung minimises L directly by projected Newton in
   log-sizing coordinates u_j = ln x_j, where the delay's posynomial
   terms are convex.  dT/dx_j reads only x_{j-1}, x_j and x_{j+1}, so
   the Hessian is tridiagonal: one fused pass
   ([Path.gradient_hessian_into]) gives the gradient and the exact
   second derivatives of the closed-form model, and the step is one
   O(n) Thomas solve on the Hessian in u,
     H_jj = x_j g_j + x_j^2 d2L/dx_j2,  H_j,j+1 = x_j x_{j+1} d2L/dx_j dx_{j+1}.

   - Stages at a drive bound whose gradient points out of the box, and
     frozen stages, leave the active set (identity row, zero step); the
     test runs once per step, into a mask.
   - A non-positive Thomas pivot adds a Levenberg shift to the active
     diagonal until the factorisation goes through.
   - The step is projected onto the bounds and backtracked until L
     passes an Armijo test.
   - The solve stops when the accepted step changes no size by [tol]
     or more — the sweep's contract — or after [max_iter] passes.

   Every kernel pass counts as one sweep: a gradient-and-Hessian pass
   (both polarities) or one evaluation of L.  The cap can fall anywhere
   in an iteration: the iterate is then the last accepted one, and the
   reported step the max sizing change of the last trial point (the
   pending one when the cap fell inside a line search), so it is finite
   once one direction has been formed. *)

exception Pass_cap

(* one pass: L at [x] *)
let objective path flip ps ~w_own ~w_flip ~a x =
  let t =
    if w_flip = 0. then Path.delay path x
    else if w_own = 0. then Path.delay flip x
    else begin
      Path.delay_both path ps x;
      (w_own *. ps.Path.own) +. (w_flip *. ps.Path.flip)
    end
  in
  if a = 0. then t
  else begin
    let k = path.Path.kernel in
    let area = ref 0. in
    for j = 1 to k.Path.n - 1 do
      area := !area +. (k.Path.aw.(j) *. x.(j))
    done;
    t -. (a *. !area)
  end

let newton ?budget ~w_own ~w_flip ~a ~skip ~tol ~max_iter path x0 =
  let n = Path.length path in
  let k = path.Path.kernel in
  let lo = k.Path.lo and hi = k.Path.hi in
  (* only the flipped-polarity objective (w_own = 0) reads it *)
  let flip =
    if w_own = 0. && w_flip <> 0. then
      Path.with_input_edge path (Pops_delay.Edge.flip path.Path.input_edge)
    else path
  in
  let ps = Path.scratch () in
  with_scratch n @@ fun v ->
  let x = v.cur and trial = v.prev and g = v.grad and diag = v.diag in
  let off = v.off and mult = v.mult and dir = v.dir and free = v.free in
  Path.clamp_into path x0 x;
  let iter = ref 0 in
  let pass () =
    if !iter >= max_iter then raise_notrace Pass_cap;
    (match budget with
    | Some b ->
      if Budget.exhausted b then raise_notrace Pass_cap;
      Budget.spend b 1
    | None -> ());
    incr iter;
    Atomic.incr sweep_counter
  in
  let last_step = ref Float.nan in
  let converged = ref false and stuck = ref false in
  (try
     pass ();
     let l_cur = ref (objective path flip ps ~w_own ~w_flip ~a x) in
     (* a poisoned start ends the rung at once; the status scan reports
        the non-finite stage *)
     while Float.is_finite !l_cur && not (!converged || !stuck) do
       pass ();
       Path.gradient_hessian_into path ~w_own ~w_flip ~a x g diag off;
       (* the Hessian in u on the active set; inactive stages get
          identity rows, decoupled *)
       let scale = ref 0. in
       for j = 1 to n - 1 do
         let xj = x.(j) and gj = g.(j) in
         let f =
           not (skip j || (xj <= lo.(j) && gj > 0.) || (xj >= hi.(j) && gj < 0.))
         in
         free.(j) <- f;
         if f then begin
           diag.(j) <- (xj *. gj) +. (xj *. xj *. diag.(j));
           scale := Float.max !scale (Float.abs diag.(j))
         end
         else diag.(j) <- 1.
       done;
       off.(0) <- 0.;
       for j = 1 to n - 2 do
         off.(j) <- (if free.(j) && free.(j + 1) then x.(j) *. x.(j + 1) *. off.(j) else 0.)
       done;
       off.(n - 1) <- 0.;
       (* Thomas: multipliers into [mult], forward-eliminated right-hand
          side then the step into [dir]; a non-positive pivot retries
          with a larger Levenberg shift *)
       let shift = ref 0. and factored = ref false in
       while not (!factored || !stuck) do
         let ok = ref true and j = ref 1 in
         while !ok && !j < n do
           let i = !j in
           let sub = if i > 1 then off.(i - 1) else 0. in
           let cprev = if i > 1 then mult.(i - 1) else 0. in
           let dprev = if i > 1 then dir.(i - 1) else 0. in
           let fi = free.(i) in
           let piv = diag.(i) +. (if fi then !shift else 0.) -. (sub *. cprev) in
           if piv > 0. && Float.is_finite piv then begin
             mult.(i) <- off.(i) /. piv;
             let rhs = if fi then -.(x.(i) *. g.(i)) else 0. in
             dir.(i) <- (rhs -. (sub *. dprev)) /. piv
           end
           else ok := false;
           incr j
         done;
         if !ok then begin
           for i = n - 2 downto 1 do
             dir.(i) <- dir.(i) -. (mult.(i) *. dir.(i + 1))
           done;
           factored := true
         end
         else if !shift = 0. then shift := 1e-6 *. Float.max !scale 1e-12
         else if !shift > 1e30 *. Float.max !scale 1. then stuck := true
         else shift := 10. *. !shift
       done;
       (* projected backtracking line search on L *)
       let t = ref 1. and accepted = ref !stuck in
       while not !accepted do
         let step = ref 0. and slope = ref 0. in
         trial.(0) <- x.(0);
         for j = 1 to n - 1 do
           let d = if free.(j) then dir.(j) else 0. in
           if d = 0. then trial.(j) <- x.(j)
           else begin
             let y = Float.min hi.(j) (Float.max lo.(j) (x.(j) *. exp (!t *. d))) in
             trial.(j) <- y;
             let du =
               if y = hi.(j) || y = lo.(j) then log (y /. x.(j)) else !t *. d
             in
             slope := !slope +. (x.(j) *. g.(j) *. du);
             step := Float.max !step (Float.abs (y -. x.(j)))
           end
         done;
         last_step := !step;
         if !step < tol then begin
           Array.blit trial 0 x 0 n;
           converged := true;
           accepted := true
         end
         else begin
           pass ();
           let l_t = objective path flip ps ~w_own ~w_flip ~a trial in
           if l_t <= !l_cur +. (1e-4 *. Float.min !slope 0.) then begin
             Array.blit trial 0 x 0 n;
             l_cur := l_t;
             accepted := true
           end
           else t := 0.5 *. !t
         end
       done
     done
   with Pass_cap -> ());
  let x = Array.sub x 0 n in
  (x, !iter, !last_step, solve_status x ~diverged:!stuck ~converged:!converged)

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

type report = {
  sizing : float array;
  stats : solve_stats;
  fallback : rung;
  diags : Diag.t list;
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

(* Walk the documented fallback ladder: Newton -> plain Gauss-Seidel ->
   damped (under-relaxed, 0.5) sweep -> Tmax-safe minimum-drive sizing.
   A rung fails on a non-finite iterate, a diverging residual (for
   Newton: a system no Levenberg shift can factor, unreachable for a
   finite objective) or a forced [solver.*] fault; a rung that merely
   runs out of passes reports and returns its last iterate.  Every event
   is recorded in the returned diagnostics and emitted to the ambient
   {!Watch} collector. *)
let solve_weighted_ladder ?budget ~accel ~w_own ~w_flip ~a ~skip ~tol ~max_iter
    path x0 =
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
        match rung with
        | Accelerated -> newton ?budget ~w_own ~w_flip ~a ~skip ~tol ~max_iter path x0
        | _ ->
          gauss_seidel ?budget
            ~damping:(if rung = Damped then 0.5 else 1.)
            ~w_own ~w_flip ~a ~skip ~tol ~max_iter path x0
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
        sizing = tmax_safe_sizing ~skip path x0;
        stats = { iterations = 0; residual = Float.nan };
        fallback = Tmax_safe;
        diags = List.rev !diags;
      }
    | rung :: rest -> (
      match attempt rung with
      | Some (x, stats) ->
        if fell then
          note
            (Diag.makef Diag.Solver_fallback ~subject:(rung_name rung)
               "solver degraded to the %s rung" (rung_name rung));
        { sizing = x; stats; fallback = rung; diags = List.rev !diags }
      | None -> descend true rest)
  in
  descend false rungs

let check_a a = if a > 0. then invalid_arg "Sensitivity: a must be <= 0."

(* [beta] is the weight of the path's own polarity (1 = pure
   own-polarity link equations, 0 = pure flipped, 0.5 = balanced).  The
   default tolerance, 1e-4 fF, is ~0.004% of the minimum drive: far
   below anything the delay model can resolve, at roughly half the
   sweeps of 1e-6. *)
let solve ?budget ?(accel = true) ?(a = 0.) ?(frozen = []) ?x0 ?(beta = 0.5)
    ?(tol = 1e-4) ?(max_iter = 300) path =
  check_a a;
  let x0 = Option.value x0 ~default:(Path.min_sizing path) in
  let skip = match frozen with [] -> no_skip | l -> fun j -> List.mem j l in
  let beta = Float.min 1. (Float.max 0. beta) in
  let w_own, w_flip = (beta, 1. -. beta) in
  solve_weighted_ladder ?budget ~accel ~w_own ~w_flip ~a ~skip ~tol ~max_iter
    path x0

let solve_trace ?(a = 0.) ?(tol = 1e-6) ?(max_iter = 300) path =
  check_a a;
  let x0 = Path.min_sizing path in
  (* the paper's balanced Gauss-Seidel iteration: the trace reproduces
     its Fig. 1 trajectory, so the Newton rung never runs here *)
  let step x =
    let y = Path.clamp_sizing path x in
    sweep_kernel path ~w_own:0.5 ~w_flip:0.5 ~a ~skip:no_skip y;
    y
  in
  N.fixed_point_trace ~tol ~max_iter ~step ~distance:N.distance_inf x0

(* --- the KKT case analysis ------------------------------------------ *)

(* min sum W s.t. T_own <= t, T_flip <= t: with multipliers l_own,
   l_flip, stationarity is eq. 6 weighted by beta = l_own / (l_own +
   l_flip) at a = -1 / (l_own + l_flip), i.e. a [solve ~a ~beta].  A
   pure polarity is the answer when its delay is the worse one at its
   optimum; otherwise both bind at the root of h = T_own - T_flip, which
   falls as beta rises.  [minimum_delay] is the case a = 0. *)

(* a solved point; s = ln (-a), [neg_infinity] at a = 0 *)
type point = { x : float array; own : float; flip : float; beta : float; s : float }

let worst p = Float.max p.own p.flip

let h_of p = p.own -. p.flip

let a_of_s s = if s = Float.neg_infinity then 0. else -.exp s

let eval_point path ps ?x0 ~beta s =
  let x = (solve ~a:(a_of_s s) ?x0 ~beta path).sizing in
  Path.delay_both path ps x;
  { x; own = ps.Path.own; flip = ps.Path.flip; beta; s }

(* Anderson-Bjorck regula falsi on a bracket of opposite signs: an end
   kept twice has its value scaled by 1 - f_new / f_old (else 1/2), a
   secant through the last two points; a step equal to the value it
   replaced (a flat stretch: sizes at a bound) makes the next one
   bisect.  True when [f] meets its tolerance ([None]) within [steps]
   evaluations and above a bracket [width]. *)
let regula_falsi ~steps ~width f (lo, f_lo) (hi, f_hi) =
  let scale r = if r < 1. then 1. -. r else 0.5 in
  (* [side]: the end the last step replaced *)
  let rec go lo f_lo hi f_hi side flat k =
    if k >= steps || Float.abs (hi -. lo) < width then false
    else
      let m =
        if flat then 0.5 *. (lo +. hi) else ((lo *. f_hi) -. (hi *. f_lo)) /. (f_hi -. f_lo)
      in
      match f m with
      | None -> true
      | Some f_m when f_m > 0. = (f_lo > 0.) ->
        let f_hi = if side = `Lo then f_hi *. scale (f_m /. f_lo) else f_hi in
        go m f_m hi f_hi `Lo (f_m = f_lo) (k + 1)
      | Some f_m ->
        let f_lo = if side = `Hi then f_lo *. scale (f_m /. f_hi) else f_lo in
        go lo f_lo m f_m `Hi (f_m = f_hi) (k + 1)
  in
  go lo f_lo hi f_hi `Start false 0

let least score = function
  | [] -> invalid_arg "Sensitivity.least"
  | p :: ps -> List.fold_left (fun b q -> if score q < score b then q else b) p ps

(* the best point and every point solved, most recent first *)
let minimum_delay_points path =
  let ps = Path.scratch () in
  let seen = ref [] in
  let eval ?x0 beta =
    let p = eval_point path ps ?x0 ~beta Float.neg_infinity in
    seen := p :: !seen;
    p
  in
  let p1 = eval 1. in
  (if h_of p1 < 0. then
     let p0 = eval ~x0:p1.x 0. in
     if h_of p0 > 0. then begin
       let last = ref p0 in
       let h beta =
         last := eval ~x0:!last.x beta;
         if Float.abs (h_of !last) <= 1e-5 *. worst !last then None else Some (h_of !last)
       in
       ignore (regula_falsi ~steps:12 ~width:1e-4 h (0., h_of p0) (1., h_of p1))
     end);
  (least worst !seen, !seen)

let minimum_delay path = match minimum_delay_points path with p, _ -> (worst p, p.x, p.beta)

type constraint_result = {
  sizing : float array;
  a : float;
  beta : float;
  delay : float;
  area : float;
}

let result_of path ~beta a sizing =
  { sizing; a; beta; delay = Path.delay_worst path sizing; area = Path.area path sizing }

(* sizes off their bounds rounded up onto the write-back grid: at a
   solved point the weighted gradient a * aw_j <= 0 there, so the
   weighted delay cannot rise to first order *)
let grid_up path x =
  let k = path.Path.kernel in
  Array.mapi
    (fun j v ->
      if j = 0 || v <= k.Path.lo.(j) || v >= k.Path.hi.(j) then v
      else Float.min k.Path.hi.(j) (Path.grid ~round:Float.ceil v))
    x

(* [fit beta s] puts the weighted delay beta T_own + (1 - beta) T_flip,
   monotone in s = ln (-a), in a window under the target: doubling steps
   in s from [s] until the window is bracketed, then regula falsi; each
   solve warm-starts from the nearest s solved.  beta = 1 fitted to tc
   is the answer when T_flip <= T_own there, likewise beta = 0; else
   regula falsi on beta finds the root of h, with fits eps under tc and
   |h| <= eps tc so the worse delay meets tc.  A search short of its
   tolerance falls back on the least-area point meeting tc.  The answer
   is rounded up onto the grid, and reruns under tc if that breaks it. *)
let size_for_constraint ?(tol_ps = 0.01) path ~tc =
  let p_tmin, seen0 = minimum_delay_points path in
  let tmin = worst p_tmin in
  let x_min = Path.min_sizing path in
  let tmax = Path.delay_worst path x_min in
  if tc < tmin -. tol_ps then Error (`Infeasible tmin)
  else if tc >= tmax then Ok (result_of path ~beta:0.5 Float.neg_infinity x_min)
  else if tc <= tmin then Ok (result_of path ~beta:p_tmin.beta 0. p_tmin.x)
  else begin
    let ps = Path.scratch () in
    let seen = ref seen0 in
    let solve_at ~beta s =
      let near = least (fun p -> Float.abs (p.s -. s)) !seen in
      let p = eval_point path ps ~x0:near.x ~beta s in
      seen := p :: !seen;
      p
    in
    (* the first fit starts from the slope of the Pareto chord *)
    let s0 =
      let r = (tmax -. tmin) /. (Path.area path p_tmin.x -. Path.area path x_min) in
      if Float.is_finite r && r > 0. then log r else 0.
    in
    let weighted (p : point) = (p.beta *. p.own) +. ((1. -. p.beta) *. p.flip) in
    (* the weighted delay rises with s up to its minimum-drive value *)
    let at_min =
      Path.delay_both path ps x_min;
      let own = ps.Path.own and flip = ps.Path.flip in
      fun beta -> { x = x_min; own; flip; beta; s = Float.infinity }
    in
    (* relative window; finer near Tmin, where area is steep in delay *)
    let w = Float.min 1e-4 (0.01 *. (tc -. tmin) /. tc) in
    let fit ?(target = tc) ?(window = w) ?(step0 = 1.) beta s_start =
      let s_start = if Float.is_finite s_start then s_start else s0 in
      let lower = target *. (1. -. window) and hit = ref None in
      (* [None] in the window, else the distance from its middle *)
      let g p =
        let t = weighted p in
        if t >= lower && t <= target then begin
          hit := Some p;
          None
        end
        else Some (t -. (target *. (1. -. (0.5 *. window))))
      in
      let rec step p gp d =
        let q = solve_at ~beta (if gp > 0. then p.s -. d else p.s +. d) in
        match g q with
        | Some gq when gq > 0. <> (gp > 0.) ->
          let fast = ref (if gq < 0. then q else p) in
          let f s =
            let r = solve_at ~beta s in
            let gr = g r in
            (match gr with Some x when x < 0. -> fast := r | _ -> ());
            gr
          in
          let width = 1e-9 *. Float.max 1. (Float.abs !fast.s) in
          if regula_falsi ~steps:30 ~width f (p.s, gp) (q.s, gq) then Option.get !hit
          else begin
            if weighted !fast < 0.99 *. target then
              Watch.emit
                (Diag.makef Diag.Bracket_collapse ~subject:"size_for_constraint"
                   "sensitivity bracket collapsed at a = %g with delay %.3f ps well \
                    under the %.3f ps target"
                   (a_of_s !fast.s) (weighted !fast) target);
            !fast
          end
        | Some gq when Float.abs (q.s -. s_start) <= 30. -> step q gq (2. *. d)
        | _ -> q
      in
      if weighted (at_min beta) < lower then at_min beta
      else
        let p = solve_at ~beta s_start in
        match g p with None -> p | Some gp -> step p gp step0
    in
    let search target =
      let p1 = fit ~target 1. s0 in
      if h_of p1 >= 0. then Some p1
      else
        let p0 = fit ~target 0. p1.s in
        if h_of p0 <= 0. then Some p0
        else begin
          let eps = 0.3 *. w and hit = ref None and last = ref p0 in
          let h beta =
            last := fit ~target:(target *. (1. -. eps)) ~window:(0.1 *. w) ~step0:0.25 beta !last.s;
            if Float.abs (h_of !last) > eps *. target then Some (h_of !last)
            else begin
              hit := Some !last;
              None
            end
          in
          ignore (regula_falsi ~steps:24 ~width:1e-6 h (0., h_of p0) (1., h_of p1));
          !hit
        end
    in
    let rec answer k target =
      let p =
        match search target with
        | Some p -> p
        | None -> least (fun p -> Path.area path p.x) (List.filter (fun p -> worst p <= tc) !seen)
      in
      let y = grid_up path p.x in
      let over = Path.delay_worst path y -. tc in
      if over <= 0. || k = 0 then (p, if over <= 0. then y else p.x)
      else answer (k - 1) (target -. over -. (0.5 *. w *. tc))
    in
    let p, y = answer 2 tc in
    Ok (result_of path ~beta:p.beta (a_of_s p.s) y)
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
