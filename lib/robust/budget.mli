(** Wall-clock and iteration budgets for the solver and flow loops.

    A budget is a mutable accumulator shared down a call tree: loops
    {!spend} what they use and poll {!exhausted}; when a cap is hit the
    engine degrades gracefully (returns the best state reached, plus a
    {!Diag.Budget_exceeded} diagnostic) instead of running open-ended.
    Granularity: budgets are checked between fixed-point sweeps and
    between flow rounds, so an overrun is bounded by one sweep / one
    round, never detected mid-kernel. *)

type t

val create : ?wall_ms:float -> ?sweeps:int -> unit -> t
(** [wall_ms] — wall-clock cap from now, milliseconds; [sweeps] — total
    link-equation sweep cap.  Omitted caps are unlimited. *)

val spend : t -> int -> unit
(** Record [n] sweeps (or abstract work units) against the budget. *)

val sweeps_spent : t -> int
val exhausted : t -> bool

val remaining_sweeps : t -> default:int -> int
(** Iterations a loop may still run, clamped to [default] when the
    budget has no sweep cap. *)

val diag : t -> Diag.t
(** A {!Diag.Budget_exceeded} diagnostic naming the cap that tripped. *)
