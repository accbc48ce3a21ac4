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

val golden_section_min :
  ?tol:float -> ?max_iter:int ->
  f:(float -> float) -> lo:float -> hi:float -> unit -> float * float
(** [golden_section_min ~f ~lo ~hi ()] minimises a unimodal [f] on
    [\[lo, hi\]], returning [(argmin, min)]. *)

val fixed_point_trace :
  ?tol:float -> ?max_iter:int ->
  step:(float array -> float array) ->
  distance:(float array -> float array -> float) ->
  float array -> float array list
(** [fixed_point_trace ~step ~distance x0] iterates [step] until
    [distance x (step x) < tol] or [max_iter] is hit, and returns every
    iterate, first to last: the Fig. 1 convergence plot. *)

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
