(** The constant-sensitivity sizing method (Section 3.2, eqs. 5–6).

    The method imposes the same delay sensitivity on every free gate of a
    bounded path:

    [dT/dC_IN(i) = a]   for all interior stages [i]            (eq. 5)

    For [a = 0] this is the minimum-delay condition (the link equations of
    eq. 4); decreasing [a] below zero trades delay for area, sweeping the
    entire Pareto front of the convex sizing problem (the paper's Fig. 3).
    The solution of the resulting system (eq. 6) is computed by the
    backward Gauss–Seidel fixed point the paper describes: starting from
    the minimum-drive initial solution and processing from the output
    (where the terminal load is known) towards the input.

    The sensitivity is expressed per unit of {e transistor width}
    ([a = dT/dW_i], ps/um): with the paper's [Sigma W] area objective the
    exact optimality (KKT) condition is a uniform width-sensitivity, so
    a 3-input cell is held to a proportionally tighter capacitance
    sensitivity ([dT/dC_IN(i) = a * dW_i/dC_IN(i)]).  [a] is 0 or
    negative. *)

type solve_stats = {
  iterations : int;  (** fixed-point sweeps performed (probe sweeps included) *)
  residual : float;
      (** final max sizing change, fF: the step of the last sweep (or
          accepted probe); below [tol] on convergence *)
}

(** {2 Watchdogs and graceful degradation} *)

(** The fallback ladder, top to bottom.  Each solve starts at the
    highest rung its [accel] flag allows and descends one rung per
    watchdog trip ([Solver_nonfinite] iterate, [Solver_divergence]
    residual growth, or an armed [solver.*] fault); [Tmax_safe] — the
    minimum-drive sizing whose delay {e defines} the path's Tmax bound —
    needs no solver and cannot fail. *)
type rung =
  | Accelerated  (** Aitken-accelerated Gauss–Seidel (the default) *)
  | Plain  (** unaccelerated Gauss–Seidel *)
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

(** The solver runs the backward Gauss–Seidel sweep directly on the
    path's compiled {!Pops_delay.Path.kernel} tables with per-domain
    scratch buffers, so a solve allocates only its result vector.

    [?accel] (default [true]) enables Aitken Δ² extrapolation of the
    fixed point: after every three plain iterates a component-wise Δ²
    candidate is probed with one extra (counted) sweep and accepted only
    if it contracts strictly better than the plain sequence; otherwise
    the plain iterates continue bitwise-unchanged, so [~accel:false]
    reproduces the unaccelerated trajectory exactly and acceleration can
    only change how many sweeps convergence takes, not the contract the
    result satisfies. *)

val solve : ?budget:Pops_robust.Budget.t -> ?accel:bool -> ?a:float ->
  ?frozen:int list -> ?x0:float array -> ?beta:float -> ?tol:float ->
  ?max_iter:int -> Pops_delay.Path.t -> report
(** [solve ~a path] returns the sizing satisfying eq. (5) with
    sensitivity [a] (default [0.], i.e. minimum delay), entries clamped
    to the available drive range, with the ladder's verdict attached.
    Stages listed in [frozen] keep their [x0] size (default: the minimum
    drive) — used by local buffer insertion, where only the buffer may
    be sized.  The sweep stops when the max sizing change falls below
    [tol] (default [1e-4] fF) or after [max_iter] sweeps (default 300).

    [beta] weights the path's own input polarity in the link equations
    ([1] = pure own-polarity, [0] = pure flipped, default [0.5] =
    balanced).  The balanced objective is {!Pops_delay.Path.delay_avg}:
    the link equations keep their closed form with the per-stage
    coefficient bundles averaged over the two polarities, so NOR/NAND
    weak edges are never hidden by a lucky polarity; results are then
    {e reported} against {!Pops_delay.Path.delay_worst}.  Constraint
    sizing sweeps a small [beta] grid because the KKT-optimal weighting
    depends on which polarity constraint binds.

    The solve runs under the fallback ladder (see {!rung}): a rung whose
    iterate goes non-finite or whose residual diverges is abandoned and
    the next rung retried, ending — in the worst case — at the
    Tmax-safe minimum-drive sizing, so a valid sizing always comes back.
    Degradations are returned in [diags] and emitted to
    {!Pops_robust.Watch}; [Pops_robust.Outcome.make r.sizing r.diags]
    is the solve as an outcome.  A fault-free converging solve is
    bit-identical to the pre-ladder solver.  [budget] caps the sweeps /
    wall clock spent; an exhausted budget keeps the last iterate and
    reports {!Pops_robust.Diag.Budget_exceeded}.
    @raise Invalid_argument if [a > 0.]. *)

val solve_trace : ?a:float -> ?tol:float -> ?max_iter:int -> Pops_delay.Path.t ->
  float array list
(** Every fixed-point iterate (first is the minimum-drive initial
    solution); reproduces the convergence trajectory of Fig. 1.  Always
    runs the plain (unaccelerated) iteration, so no probe iterates
    appear in the trace. *)

val minimum_delay : Pops_delay.Path.t -> float * float array * float
(** [(tmin, sizing, beta)]: the minimum achievable worst-polarity delay,
    the sizing reaching it and the polarity weight whose link equations
    produced it (grid scan plus golden-section refinement).  The shared
    Tmin definition used by [Bounds], the constraint sizer and the
    buffer-insertion objective. *)

val delay_of_a : Pops_delay.Path.t -> float -> float
(** Path delay of the sizing obtained with sensitivity [a]. Monotone
    non-decreasing as [a] decreases (property-tested). *)

type constraint_result = {
  sizing : float array;
  a : float;  (** the sensitivity achieving the constraint *)
  delay : float;
  area : float;
}

val bisect_for_beta :
  ?accel:bool -> beta:float -> Pops_delay.Path.t -> tc:float ->
  constraint_result option
(** Root-find on the sensitivity [a] so the worst-polarity delay of the
    [beta]-weighted solve meets [tc] at minimum area, warm-starting each
    fixed point from the previous bracket iterate.  Safeguarded regula
    falsi on [delay(a) - tc] — the secant step exploits the smooth
    monotone delay-vs-[a] curve, with a bisection fallback preserving
    the classic worst case.  [None] when even [a = 0] misses [tc] under
    this weighting.  One probe of {!size_for_constraint}'s grid; exposed
    for the equivalence tests and the kernel benchmark.  A bracket that
    collapses with the best delay still well under target reports
    {!Pops_robust.Diag.Bracket_collapse} through {!Pops_robust.Watch}. *)

val size_for_constraint :
  ?tol_ps:float -> Pops_delay.Path.t -> tc:float ->
  (constraint_result, [ `Infeasible of float ]) result
(** [size_for_constraint path ~tc] finds by bisection on [a] the
    minimum-area sizing whose delay meets [tc].  [`Infeasible tmin] when
    [tc] is below the path's minimum achievable delay (the caller must
    then modify the structure — Section 4). When [tc] exceeds the
    minimum-drive delay the all-minimum sizing is returned. *)

val sweeps_performed : unit -> int
(** Total link-equation sweeps executed by this process so far — one
    sweep costs one whole-path retiming, making this the
    hardware-independent cost metric the Table 1 benchmark reports.
    Monotone counter; sample before/after the work to measure. *)

val sutherland : ?iters:int -> Pops_delay.Path.t -> tc:float -> float array
(** The equal-delay-per-stage constraint distribution (Sutherland/Mead,
    paper refs [4,15]): every stage gets the budget [tc / n].  The fast
    classical method the paper compares against — it oversizes gates with
    large logical weight; the benchmark harness quantifies the area gap. *)
