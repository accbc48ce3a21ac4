(** The constant-sensitivity sizing method (Section 3.2, eqs. 5–6).

    The method imposes the same delay sensitivity on every free gate of a
    bounded path:

    [dT/dC_IN(i) = a]   for all interior stages [i]            (eq. 5)

    For [a = 0] this is the minimum-delay condition (the link equations of
    eq. 4); decreasing [a] below zero trades delay for area, sweeping the
    entire Pareto front of the convex sizing problem (the paper's Fig. 3).
    The paper solves the resulting system (eq. 6) by a backward
    Gauss–Seidel fixed point: starting from the minimum-drive initial
    solution and processing from the output (where the terminal load is
    known) towards the input.  That sweep is kept for the Fig. 1 trace
    ({!solve_trace}) and the lower rungs of the fallback ladder; the first
    rung solves the same equations by projected Newton (see {!solve}).

    The sensitivity is expressed per unit of {e transistor width}
    ([a = dT/dW_i], ps/um): with the paper's [Sigma W] area objective the
    exact optimality (KKT) condition is a uniform width-sensitivity, so
    a 3-input cell is held to a proportionally tighter capacitance
    sensitivity ([dT/dC_IN(i) = a * dW_i/dC_IN(i)]).  [a] is 0 or
    negative. *)

type solve_stats = {
  iterations : int;
      (** kernel passes performed: Gauss–Seidel sweeps, or Newton's
          fused gradient-and-Hessian passes and objective evaluations *)
  residual : float;
      (** final max sizing change, fF: the step of the last sweep, or of
          the last Newton trial point (the pending one when the cap fell
          inside a line search); below [tol] on convergence, [nan] only
          when the cap fell before the first step was formed *)
}

(** {2 Watchdogs and graceful degradation} *)

(** The fallback ladder, top to bottom.  Each solve starts at the
    highest rung its [accel] flag allows and descends one rung per
    watchdog trip ([Solver_nonfinite] iterate, [Solver_divergence]
    residual growth, or an armed [solver.*] fault); [Tmax_safe] — the
    minimum-drive sizing whose delay {e defines} the path's Tmax bound —
    needs no solver and cannot fail. *)
type rung =
  | Accelerated  (** projected Newton on the link equations (the default) *)
  | Plain  (** Gauss–Seidel sweep (the paper's iteration) *)
  | Damped  (** under-relaxed sweep, blend factor 0.5 *)
  | Tmax_safe  (** minimum-drive sizing, no iteration *)

val rung_name : rung -> string
(** Kebab-case rung name as it appears in diagnostics
    ([accelerated] / [plain] / [damped] / [tmax-safe]). *)

type report = {
  sizing : float array;  (** always valid: clamped, finite *)
  stats : solve_stats;  (** of the rung that produced [sizing] *)
  fallback : rung;  (** the rung that produced [sizing] *)
  diags : Pops_robust.Diag.t list;
      (** everything the ladder reported, in emission order; empty for a
          clean first-rung convergence *)
}

(** Both solvers run directly on the path's compiled
    {!Pops_delay.Path.kernel} tables with per-domain scratch buffers, so
    a solve allocates only its result vector (plus, for a balanced
    [beta], the O(1) flipped-path record).

    [?accel] (default [true]) starts the ladder at the Newton rung.  The
    link equations are the stationarity conditions of
    [L(x) = beta T_own(x) + (1 - beta) T_flip(x) - a sum_j aw_j x_j];
    Newton minimises [L] in log-sizing coordinates.  [dT/dx_j] couples
    only [x_(j-1)], [x_j] and [x_(j+1)], so the Hessian is tridiagonal:
    one fused pass ({!Pops_delay.Path.gradient_hessian_into}) gives the
    gradient and its exact second derivatives, and each step is that
    pass, one O(n) Thomas solve, with a Levenberg shift on a non-positive
    pivot, an Armijo backtrack on [L], and stages at a drive bound (or
    [frozen]) held out of the active set.  [~accel:false] runs plain
    Gauss–Seidel.  Both rungs stop on the same contract (max sizing
    change below [tol]) and land on the same fixed point. *)

val solve : ?budget:Pops_robust.Budget.t -> ?accel:bool -> ?a:float ->
  ?frozen:int list -> ?x0:float array -> ?beta:float -> ?tol:float ->
  ?max_iter:int -> Pops_delay.Path.t -> report
(** [solve ~a path] returns the sizing satisfying eq. (5) with
    sensitivity [a] (default [0.], i.e. minimum delay), entries clamped
    to the available drive range, with the ladder's verdict attached.
    Stages listed in [frozen] keep their [x0] size (default: the minimum
    drive) — used by local buffer insertion, where only the buffer may
    be sized.  The solve stops when the max sizing change of a step
    falls below [tol] (default [1e-4] fF) or after [max_iter] kernel
    passes (default 300; see {!solve_stats}); a solve cut by the cap
    keeps its last iterate and reports
    {!Pops_robust.Diag.Solver_stalled}.

    [beta] weights the path's own input polarity in the link equations
    ([1] = pure own-polarity, [0] = pure flipped, default [0.5] =
    balanced).  The balanced objective is {!Pops_delay.Path.delay_avg}:
    the link equations keep their closed form with the per-stage
    coefficient bundles averaged over the two polarities, so NOR/NAND
    weak edges are never hidden by a lucky polarity; results are then
    {e reported} against {!Pops_delay.Path.delay_worst}.  Constraint
    sizing searches [beta] because the KKT-optimal weighting depends on
    which polarity constraint binds (see {!size_for_constraint}).

    The solve runs under the fallback ladder (see {!rung}): a rung whose
    iterate goes non-finite or whose residual diverges is abandoned and
    the next rung retried, ending — in the worst case — at the
    Tmax-safe minimum-drive sizing, so a valid sizing always comes back.
    Degradations are returned in [diags] and emitted to
    {!Pops_robust.Watch}; [Pops_robust.Outcome.make r.sizing r.diags]
    is the solve as an outcome.  [budget] caps the kernel passes /
    wall clock spent; an exhausted budget keeps the last iterate and
    reports {!Pops_robust.Diag.Budget_exceeded}.
    @raise Invalid_argument if [a > 0.]. *)

val solve_trace : ?a:float -> ?tol:float -> ?max_iter:int -> Pops_delay.Path.t ->
  float array list
(** Every fixed-point iterate (first is the minimum-drive initial
    solution); reproduces the convergence trajectory of Fig. 1.  Always
    runs the paper's Gauss–Seidel sweep, never the Newton rung. *)

val minimum_delay : ?x0:float array -> Pops_delay.Path.t -> float * float array * float
(** [(tmin, sizing, beta)]: the minimum achievable worst-polarity delay,
    the sizing reaching it and the polarity weight whose link equations
    produced it: [beta = 1] when the own polarity is the worse one at
    its optimum, else [beta = 0] when the flipped one is, else the root
    of [T_own - T_flip] in [beta] (Newton on the tangent [dh/dbeta],
    safeguarded by its bracket).  [x0] warm-starts the first solve
    (default: the minimum drive).  The shared Tmin of [Bounds], the
    constraint sizer and buffer insertion. *)

type tangent = {
  dx_ds : float array;  (** [dx/ds] at fixed [beta], [s = ln (-a)] *)
  dx_dbeta : float array;  (** [dx/dbeta] at fixed [a] *)
  dt_ds : float;
      (** [dT_w/ds] of the weighted delay
          [T_w = beta T_own + (1 - beta) T_flip] *)
  dh_dbeta : float;  (** [dh/dbeta] of [h = T_own - T_flip] at fixed [a] *)
}

val tangent : ?frozen:int list -> Pops_delay.Path.t -> a:float -> beta:float ->
  float array -> tangent
(** [tangent path ~a ~beta x]: how the solution of eq. 6 moves with
    [s = ln (-a)] and [beta] at a sizing [x] that solves it, by the
    implicit-function theorem on the free stages:
    [H dx/ds = -e^s aw] and [H dx/dbeta = -(dT_own/dx - dT_flip/dx)],
    with [H] the exact tridiagonal Hessian of the sizing objective (one
    {!Pops_delay.Path.gradient_hessian_into} pass) and two Thomas solves
    on one factorisation; the delay derivatives are dot products with
    the polarity gradients.  Stages at a drive bound that is active, and
    [frozen] ones, have zero tangent; at [a = 0] the [s] tangents are 0.
    The constraint sizer's Newton steps and warm starts read these.
    @raise Invalid_argument if [a > 0.]. *)

type constraint_result = {
  sizing : float array;
  a : float;  (** the sensitivity achieving the constraint *)
  beta : float;  (** the polarity weight of the solve that produced it *)
  delay : float;
  area : float;
}

val size_for_constraint :
  ?tol_ps:float -> ?x0:float array -> Pops_delay.Path.t -> tc:float ->
  (constraint_result, [ `Infeasible of float ]) result
(** The minimum-area sizing whose worst-polarity delay meets [tc], by
    the KKT case analysis of [min sum W s.t. T_own <= tc, T_flip <= tc]:
    its stationarity is the [beta]-weighted link equation at [a].
    [beta = 1] is the answer when the own delay binds alone, [beta = 0]
    when the flipped one does, else [beta] is the root of
    [T_own - T_flip] with the weighted delay just under [tc].  The
    search is a safeguarded Newton iteration on [(ln (-a), beta)] from
    the Tmin point, its steps and warm starts read off {!tangent}: in
    [ln (-a)] alone at a pure weight (bracketed, with a regula falsi
    fallback), a 2x2 step with [beta] projected onto [[0, 1]] where
    both polarities bind.  Sizes come rounded up onto the write-back
    grid ({!Pops_delay.Path.grid}); [a] and [beta] are the solve's.  A
    collapsed bracket on [ln (-a)] reports
    {!Pops_robust.Diag.Bracket_collapse} through {!Pops_robust.Watch}.
    [`Infeasible tmin] when [tc] is more than [tol_ps] (0.01 ps) below
    Tmin (Section 4 then changes the structure); within it, the Tmin
    sizing; above the minimum-drive delay, the all-minimum sizing.
    [x0] warm-starts the Tmin solve (see {!minimum_delay}).
    @raise Invalid_argument if [tc] is NaN. *)

val dual_bound :
  ?x0:float array -> Pops_delay.Path.t -> a:float -> beta:float -> tc:float ->
  float option
(** [dual_bound path ~a ~beta ~tc]: a lower bound, by weak duality, on
    the area of every sizing [size_for_constraint path ~tc] can return
    at its default [tol_ps] (docs/model.md §4).  With [lambda = -1/a]
    and [t^ = tc + tol_ps], it is [area x^ + lambda (beta (T_own x^ - t^) + (1 - beta) (T_flip
    x^ - t^))] at [x^ = solve ~a ~beta ?x0 path], the minimum of the
    Lagrangian with multipliers [lambda beta] and [lambda (1 - beta)].
    At [a = neg_infinity] ([lambda = 0]) it is the minimum-drive area,
    with no solve.  [None] at [a = 0] (or NaN), and when the solve
    reports any diagnostic or ends on a rung other than [Accelerated];
    the solve's diagnostics are dropped, never emitted.  The bound is
    exact up to the solve's tolerance: a caller comparing it against a
    threshold keeps a margin. *)

val sweeps_performed : unit -> int
(** Total kernel passes executed by this process so far — a
    Gauss–Seidel sweep, or one of Newton's fused gradient-and-Hessian
    passes (both polarities) or objective evaluations.  Each costs one whole-path
    retiming, making this the hardware-independent cost metric the
    Table 1 benchmark reports.  Monotone counter; sample before/after the
    work to measure. *)

val solves_performed : unit -> int
(** Total {!solve} calls by this process so far (each one run of the
    fallback ladder); monotone, like {!sweeps_performed}. *)

val sutherland : ?iters:int -> Pops_delay.Path.t -> tc:float -> float array
(** The equal-delay-per-stage constraint distribution (Sutherland/Mead,
    paper refs [4,15]): every stage gets the budget [tc / n].  The fast
    classical method the paper compares against — it oversizes gates with
    large logical weight; the benchmark harness quantifies the area gap. *)
