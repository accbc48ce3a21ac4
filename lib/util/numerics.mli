(** Numerical routines shared by the optimizer and the simulator.

    Everything here is deterministic and allocation-light; the optimizer
    calls these in inner loops.  All tolerances are absolute unless the
    name says otherwise. *)

exception No_bracket of string
(** Raised by root finders when the supplied interval does not bracket a
    root. The payload names the caller for diagnosis. *)

val bisect :
  ?caller:string -> ?tol:float -> ?max_iter:int ->
  f:(float -> float) -> lo:float -> hi:float -> unit -> float
(** [bisect ~f ~lo ~hi ()] finds [x] in [\[lo, hi\]] with [f x = 0] assuming
    [f lo] and [f hi] have opposite signs.  Internally a safeguarded
    regula falsi: secant steps where they converge superlinearly, with a
    bisection fallback whenever a step degenerates or fails to halve the
    bracket, so the worst case stays the bisection bound.  Terminates
    when the bracket width drops below [tol] (or at [max_iter]) and
    returns the bracket midpoint.
    @raise No_bracket if the signs agree. *)

val newton :
  ?tol:float -> ?max_iter:int ->
  f:(float -> float) -> df:(float -> float) -> x0:float -> unit -> float option
(** Newton-Raphson from [x0]; [None] when it diverges or the derivative
    vanishes.  Callers fall back to {!bisect}. *)

val golden_section_min :
  ?tol:float -> ?max_iter:int ->
  f:(float -> float) -> lo:float -> hi:float -> unit -> float * float
(** [golden_section_min ~f ~lo ~hi ()] minimises a unimodal [f] on
    [\[lo, hi\]], returning [(argmin, min)]. *)

val fixed_point :
  ?tol:float -> ?max_iter:int ->
  step:(float array -> float array) ->
  distance:(float array -> float array -> float) ->
  float array -> float array * int
(** [fixed_point ~step ~distance x0] iterates [step] until
    [distance x (step x) < tol] or [max_iter] is hit.  Returns the final
    iterate and the number of iterations performed. *)

val fixed_point_trace :
  ?tol:float -> ?max_iter:int ->
  step:(float array -> float array) ->
  distance:(float array -> float array -> float) ->
  float array -> float array list
(** Like {!fixed_point} but returns every iterate, first to last.  Used to
    reproduce the Fig. 1 convergence plot. *)

val gradient : f:(float array -> float) -> ?h:float -> float array -> float array
(** Central-difference numerical gradient, relative step [h] (default
    1e-5) scaled by [max 1. |x_i|].  Reference implementation used by
    property tests to validate analytic gradients. *)

val distance_inf : float array -> float array -> float
(** L-infinity distance between two vectors of equal length. *)

val clamp : lo:float -> hi:float -> float -> float
(** [clamp ~lo ~hi x] restricts [x] to [\[lo, hi\]]. *)

val close : ?rtol:float -> ?atol:float -> float -> float -> bool
(** Approximate float equality: [|a - b| <= atol + rtol * max |a| |b|].
    Defaults: [rtol = 1e-9], [atol = 1e-12]. *)

val linspace : float -> float -> int -> float array
(** [linspace a b n] gives [n >= 2] evenly spaced points from [a] to [b]
    inclusive. *)

val logspace : float -> float -> int -> float array
(** [logspace a b n]: [n] points geometrically spaced from [a] to [b];
    requires [a > 0.] and [b > 0.]. *)
