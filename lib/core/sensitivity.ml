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

(* calls of [solve], each one run of the fallback ladder *)
let solve_counter = Atomic.make 0

let solves_performed () = Atomic.get solve_counter

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

(* A plain fixed-point iteration of the clamp-then-sweep step, done in
   place: the same iterates bit for bit, iteration count and stopping
   rule (max sizing change < tol, or max_iter sweeps) as the reference
   fixed-point loop test_kernel checks it against
   (test/numeric_oracle.ml). *)
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
  Atomic.incr solve_counter;
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

let weighted p = (p.beta *. p.own) +. ((1. -. p.beta) *. p.flip)

let eval_point path ps ?x0 ~beta s =
  let x = (solve ~a:(a_of_s s) ?x0 ~beta path).sizing in
  Path.delay_both path ps x;
  { x; own = ps.Path.own; flip = ps.Path.flip; beta; s }

(* The implicit-function tangents of eq. 6 at a solved point.  On the
   free stages the link equations read F = beta dT_own + (1 - beta)
   dT_flip - a aw = 0, so with H their Jacobian in x (the Hessian of L)
     H dx/da = aw,   H dx/dbeta = -(dT_own - dT_flip),
   and dx/ds = a dx/da = -e^s H^-1 aw.  Stages at an active bound, and
   frozen ones, have zero tangent.  One fused pass gives H, the weighted
   gradient and the polarity difference; one Thomas factorisation serves
   both right-hand sides.  [ta]/[tb] differentiate the weighted delay
   T_w = beta T_own + (1 - beta) T_flip ([tb] with its own partial, h),
   [ha]/[hb] the difference h; [q = aw . dx/da], so near a = 0 the
   weighted delay is T_w(0) + q a^2 / 2.  A system that does not factor
   (no strict minimum) gives zero tangents. *)
type tangents = {
  xa : float array;  (* dx/da *)
  xb : float array;  (* dx/dbeta *)
  ta : float;
  tb : float;
  ha : float;
  hb : float;
  q : float;
}

let tangents path ~skip ~beta ~a (p : point) =
  let n = Path.length path in
  let k = path.Path.kernel in
  let lo = k.Path.lo and hi = k.Path.hi and aw = k.Path.aw in
  let x = p.x in
  let v () = Array.make n 0. in
  let g = v () and d = v () and hd = v () and ho = v () in
  let xa = v () and xb = v () and mult = v () in
  Atomic.incr sweep_counter;
  Path.gradient_hessian_into ~diff:d path ~w_own:beta ~w_flip:(1. -. beta) ~a x g hd ho;
  let free =
    Array.init n (fun j ->
        j > 0
        && not (skip j || (x.(j) <= lo.(j) && g.(j) > 0.) || (x.(j) >= hi.(j) && g.(j) < 0.)))
  in
  let ok = ref true in
  for i = 1 to n - 1 do
    if free.(i) then begin
      let sub = if free.(i - 1) then ho.(i - 1) else 0. in
      let piv = hd.(i) -. (sub *. mult.(i - 1)) in
      if piv > 0. && Float.is_finite piv then begin
        if i < n - 1 && free.(i + 1) then mult.(i) <- ho.(i) /. piv;
        xa.(i) <- (aw.(i) -. (sub *. xa.(i - 1))) /. piv;
        xb.(i) <- (-.d.(i) -. (sub *. xb.(i - 1))) /. piv
      end
      else ok := false
    end
  done;
  for i = n - 2 downto 1 do
    xa.(i) <- xa.(i) -. (mult.(i) *. xa.(i + 1));
    xb.(i) <- xb.(i) -. (mult.(i) *. xb.(i + 1))
  done;
  if not !ok then begin
    Array.fill xa 0 n 0.;
    Array.fill xb 0 n 0.
  end;
  (* the weighted delay's gradient is L's plus a aw *)
  let ta = ref 0. and tb = ref 0. and ha = ref 0. and hb = ref 0. and q = ref 0. in
  for j = 1 to n - 1 do
    let gw = g.(j) +. (a *. aw.(j)) in
    ta := !ta +. (gw *. xa.(j));
    tb := !tb +. (gw *. xb.(j));
    ha := !ha +. (d.(j) *. xa.(j));
    hb := !hb +. (d.(j) *. xb.(j));
    q := !q +. (aw.(j) *. xa.(j))
  done;
  { xa; xb; ta = !ta; tb = h_of p +. !tb; ha = !ha; hb = !hb; q = !q }

(* the first-order sizing at (a', beta') from [p], taken in log sizes
   (the solver's coordinates, where a long step cannot cross zero) and
   clamped *)
let predict path p t ~a' ~beta' =
  let da = a' -. a_of_s p.s and db = beta' -. p.beta in
  let y =
    Array.mapi
      (fun j xj ->
        let du = ((da *. t.xa.(j)) +. (db *. t.xb.(j))) /. xj in
        xj *. exp (Float.min 3. (Float.max (-3.) du)))
      p.x
  in
  Path.clamp_into path y y;
  y

type tangent = { dx_ds : float array; dx_dbeta : float array; dt_ds : float; dh_dbeta : float }

let tangent ?(frozen = []) path ~a ~beta x =
  check_a a;
  let skip = match frozen with [] -> no_skip | l -> fun j -> List.mem j l in
  let ps = Path.scratch () in
  Path.delay_both path ps x;
  let p = { x; own = ps.Path.own; flip = ps.Path.flip; beta; s = 0. } in
  let t = tangents path ~skip ~beta ~a p in
  (* dx/ds = (da/ds) dx/da = a dx/da = -e^s dx/da *)
  { dx_ds = Array.map (fun v -> a *. v) t.xa; dx_dbeta = t.xb; dt_ds = a *. t.ta;
    dh_dbeta = t.hb }

let least score = function
  | [] -> invalid_arg "Sensitivity.least"
  | p :: ps -> List.fold_left (fun b q -> if score q < score b then q else b) p ps

(* Newton on h over beta at a = 0, from the pure own-polarity optimum:
   a step leaving the bracket (a point with h > 0 below, one with
   h < 0 above) takes the secant of the bracket instead, or the pure
   flipped optimum while nothing is known below.  Once both polarities
   are known to bind (a point with h > 0), or h is within 1% of the
   delay, the search stops early at a point whose worse delay, an upper
   bound on Tmin, is at most [enough] (default: never).  The best point
   and every point solved, most recent first. *)
let minimum_delay_points ?x0 ?(enough = Float.neg_infinity) path =
  let ps = Path.scratch () in
  let seen = ref [] in
  let eval ?x0 beta =
    let p = eval_point path ps ?x0 ~beta Float.neg_infinity in
    seen := p :: !seen;
    p
  in
  let p1 = eval ?x0 1. in
  let rec go p below above k =
    let t = tangents path ~skip:no_skip ~beta:p.beta ~a:0. p in
    let newton = p.beta -. (h_of p /. t.hb) in
    let floor = match below with Some b -> b.beta | None -> 0. in
    let beta' =
      if newton > floor && newton < above.beta then newton
      else
        match below with
        | None -> 0.
        | Some b -> ((b.beta *. h_of above) -. (above.beta *. h_of b)) /. (h_of above -. h_of b)
    in
    let q = eval ~x0:(predict path p t ~a':0. ~beta') beta' in
    let hq = h_of q in
    let below, above = if hq > 0. then (Some q, above) else (below, q) in
    let width = above.beta -. Option.fold ~none:0. ~some:(fun b -> b.beta) below in
    if (beta' = 0. && hq <= 0.) || Float.abs hq <= 1e-5 *. worst q || k >= 12 || width < 1e-4
       || (worst q <= enough && (below <> None || Float.abs hq <= 0.01 *. worst q))
    then ()
    else go q below above (k + 1)
  in
  if h_of p1 < 0. then go p1 None p1 1;
  (least worst !seen, !seen)

let minimum_delay ?x0 path =
  match minimum_delay_points ?x0 path with p, _ -> (worst p, p.x, p.beta)

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

(* A safeguarded Newton search on (s, beta) from the Tmin point, its
   derivatives read off [tangents] at each solved point.

   - At a pure weight (beta = 1 with h >= 0, or beta = 0 with h <= 0)
     the weighted delay, monotone in s = ln (-a), must land in a window
     [w] under the target: Newton in s on [resid], the log of its excess
     over the a = 0 floor.  The first step, from a = 0, is the model
     excess = q a^2 / 2.  Points under and over the window's middle
     bracket s; a step leaving the bracket takes its regula falsi point
     instead (a doubling step while one side is unknown, a bisection
     once regula falsi stalls), and no Newton step from a solved point
     moves s by more than 8.
   - Otherwise both polarities bind: a 2x2 Newton step on ([resid], h)
     with beta projected onto [0, 1]; the weighted delay must land eps
     under the target and |h| within eps of it, so the worse delay meets
     it.  A step projected onto a pure weight aims at that weight's
     window.
   - Every solve warm-starts from the tangent predictor.

   A search short of its tolerance, or whose bracket collapses at a
   point that is not pure, falls back on the least-area point meeting
   tc.  The answer is rounded up onto the grid, and reruns under
   tc (from the answer) if that breaks it. *)
let default_tol_ps = 0.01

let size_for_constraint ?(tol_ps = default_tol_ps) ?x0 path ~tc =
  if Float.is_nan tc then invalid_arg "Sensitivity.size_for_constraint: tc is nan";
  (* Tmin only fixes the window [w] below 1.01 Tmin: above, any point
     whose worse delay is under tc / 1.01 settles the case analysis *)
  let p_tmin, seen0 = minimum_delay_points ?x0 ~enough:(tc /. 1.01) path in
  let tmin = worst p_tmin in
  let x_min = Path.min_sizing path in
  let tmax = Path.delay_worst path x_min in
  if tc < tmin -. tol_ps then Error (`Infeasible tmin)
  else if tc >= tmax then Ok (result_of path ~beta:0.5 Float.neg_infinity x_min)
  else if tc <= tmin then Ok (result_of path ~beta:p_tmin.beta 0. p_tmin.x)
  else begin
    let ps = Path.scratch () in
    let seen = ref seen0 in
    let solve_at ~beta s x0 =
      let p = eval_point path ps ~x0 ~beta s in
      seen := p :: !seen;
      p
    in
    (* relative window; finer near Tmin, where area is steep in delay *)
    let w = Float.min 1e-4 (0.01 *. (tc -. tmin) /. tc) in
    let eps = 0.3 *. w in
    let pure (p : point) = (p.beta = 1. && h_of p >= 0.) || (p.beta = 0. && h_of p <= 0.) in
    (* the pure window's middle, and the both-bind one's *)
    let mid_pure target = target *. (1. -. (0.5 *. w)) in
    let mid_both target = target *. (1. -. eps) *. (1. -. (0.05 *. w)) in
    let landed target p =
      let t = weighted p in
      (pure p && t >= target *. (1. -. w) && t <= target)
      ||
      let top = target *. (1. -. eps) in
      Float.abs (h_of p) <= eps *. target && t >= top *. (1. -. (0.1 *. w)) && t <= top
    in
    (* the weighted delay at a = 0 under [beta], as far as the Tmin
       points tell: the floor the excess delay of an s-step is over *)
    let floor beta =
      List.fold_left
        (fun acc p ->
          if p.s = Float.neg_infinity then
            Float.min acc ((beta *. p.own) +. ((1. -. beta) *. p.flip))
          else acc)
        Float.infinity seen0
    in
    (* the residual the s-steps drive to 0, with its scale against the
       delay's: the log of the excess over the floor relative to the
       goal's, about linear in s (slope 2 near Tmin, where the excess is
       q a^2 / 2, falling slowly beyond); the plain difference where an
       excess is not positive *)
    let resid goal beta t =
      let t0 = floor beta in
      let e = t -. t0 and eg = goal -. t0 in
      if e > 0. && eg > 0. then (log (e /. eg), 1. /. e) else (t -. goal, 1.)
    in
    (* The log excess is concave in s: its slope falls from 2 near Tmin
       towards 1/2 (a hyperbolic delay-area front, excess ~ sqrt (-a)),
       so a Newton step from under the goal falls short.  A long step
       (the excess off by more than e^(1/2)) takes the mean of the local
       slope and 1/2 instead; a short one is plain Newton. *)
    let slope f fs = if Float.abs f > 0.5 && fs > 0.5 then 0.5 *. (fs +. 0.5) else fs in
    let search target p0 =
      (* the s bracket at the current pure weight: points under and over
         the window's middle, with their residuals *)
      let under = ref None and over = ref None in
      (* solved points in a row on the same side of the bracket: regula
         falsi stalls with one end fixed, so after three it bisects *)
      let side = ref 0 and same = ref 0 in
      let rec go (p : point) k d =
        if landed target p then Some p
        else if k >= 24 then None
        else begin
          let a = a_of_s p.s in
          let t = tangents path ~skip:no_skip ~beta:p.beta ~a p in
          let goal = if pure p then mid_pure target else mid_both target in
          let beta', s_newton, f =
            if p.s = Float.neg_infinity then
              (* from a = 0 the excess is q a^2 / 2 *)
              let y = 2. *. (goal -. weighted p) /. t.q in
              (p.beta, (if y > 0. then 0.5 *. log y else Float.nan), -1.)
            else begin
              let f, sc = resid goal p.beta (weighted p) in
              let fs = slope f (sc *. a *. t.ta) in
              if pure p then (p.beta, p.s -. (f /. fs), f)
              else
                let fb = sc *. t.tb and hs = a *. t.ha in
                let b =
                  p.beta +. (((hs *. f) -. (fs *. h_of p)) /. ((fs *. t.hb) -. (fb *. hs)))
                in
                if b > 0. && b < 1. then (b, p.s -. ((f +. (fb *. (b -. p.beta))) /. fs), f)
                else
                  (* projected onto a pure weight: aim at its window *)
                  let b = if b >= 1. then 1. else 0. in
                  let f', sc' = resid (mid_pure target) p.beta (weighted p) in
                  let fs' = slope f' (sc' *. a *. t.ta) in
                  (b, p.s -. ((f' +. (sc' *. t.tb *. (b -. p.beta))) /. fs'), f')
            end
          in
          (* the bracket, and the doubling length [d] of the steps that
             look for it, hold for one weight *)
          let d =
            if beta' <> p.beta then begin
              under := None;
              over := None;
              1.
            end
            else begin
              let sd = if f < 0. then -1 else 1 in
              if sd = !side then incr same else same := 0;
              side := sd;
              if f < 0. then under := Some (p, f) else over := Some (p, f);
              d
            end
          in
          (* no Newton step from a solved point moves s by more than 8: a
             model that saturates (every size at its bound, a flat delay)
             cannot fling s *)
          let s_newton =
            if p.s = Float.neg_infinity || not (Float.abs (s_newton -. p.s) > 8.) then s_newton
            else p.s +. Float.copy_sign 8. (s_newton -. p.s)
          in
          let inside lo hi = s_newton > lo && s_newton < hi in
          let s', d' =
            match (!under, !over) with
            | Some (u, fu), Some (o, fo) ->
              if inside u.s o.s && !same < 2 then (s_newton, d)
              else if u.s = Float.neg_infinity then (o.s -. d, 2. *. d)
              else
                let r = ((u.s *. fo) -. (o.s *. fu)) /. (fo -. fu) in
                ((if r > u.s && r < o.s && !same < 2 then r else 0.5 *. (u.s +. o.s)), d)
            | Some (u, _), None ->
              if inside u.s Float.infinity then (s_newton, d) else (u.s +. d, 2. *. d)
            | None, Some (o, _) ->
              if inside Float.neg_infinity o.s then (s_newton, d) else (o.s -. d, 2. *. d)
            | None, None ->
              if Float.is_finite s_newton then (s_newton, d)
              else (p.s +. (if f > 0. then -.d else d), 2. *. d)
          in
          match (!under, !over) with
          | Some (u, _), Some (o, _)
            when o.s -. u.s < 1e-9 *. Float.max 1. (Float.abs o.s) ->
            if weighted u < 0.99 *. target then
              Watch.emit
                (Diag.makef Diag.Bracket_collapse ~subject:"size_for_constraint"
                   "sensitivity bracket collapsed at a = %g with delay %.3f ps well \
                    under the %.3f ps target"
                   (a_of_s u.s) (weighted u) target);
            (* only a pure point under the window is known to meet the
               target (a landed one was returned when it was solved);
               otherwise the answer falls back on the least-area point
               meeting tc *)
            if pure u then Some u else None
          | _ ->
            let x0 = predict path p t ~a':(a_of_s s') ~beta' in
            go (solve_at ~beta:beta' s' x0) (k + 1) d'
        end
      in
      go p0 0 1.
    in
    let rec answer k target start =
      let (p : point) =
        match search target start with
        | Some p -> p
        | None -> least (fun p -> Path.area path p.x) (List.filter (fun p -> worst p <= tc) !seen)
      in
      let y = grid_up path p.x in
      let over = Path.delay_worst path y -. tc in
      if over <= 0. || k = 0 then (p, if over <= 0. then y else p.x)
      else answer (k - 1) (target -. over -. (0.5 *. w *. tc)) p
    in
    let p, y = answer 2 tc p_tmin in
    Ok (result_of path ~beta:p.beta (a_of_s p.s) y)
  end

(* Weak duality on min sum W s.t. T_own <= t^, T_flip <= t^ with
   t^ = tc + tol_ps, which every default answer of [size_for_constraint
   ~tc] meets: for multipliers lambda beta and lambda (1 - beta), lambda
   = -1 / a, the Lagrangian's minimum over the drive box is at most that
   least area, and [solve ~a ~beta] minimises it (docs/model.md §4).
   Only a clean first-rung solve is trusted: its own diagnostics are
   dropped, and any of them voids the bound. *)
let dual_bound ?x0 path ~a ~beta ~tc =
  if a = Float.neg_infinity then Some (Path.area path (Path.min_sizing path))
  else if not (a < 0.) then None
  else begin
    let r, _ = Watch.collect (fun () -> solve ~a ?x0 ~beta path) in
    if r.diags <> [] || r.fallback <> Accelerated then None
    else begin
      let beta = Float.min 1. (Float.max 0. beta) in
      let ps = Path.scratch () in
      Path.delay_both path ps r.sizing;
      let t_hat = tc +. default_tol_ps in
      let excess = (beta *. (ps.Path.own -. t_hat)) +. ((1. -. beta) *. (ps.Path.flip -. t_hat)) in
      Some (Path.area path r.sizing +. (-1. /. a *. excess))
    end
  end
