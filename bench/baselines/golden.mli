(** Golden-section search, the line search of the bench baselines (the
    repeater optimizer), of the paper's ablation and of the test suite's
    nested sizing oracle. *)

val section_min :
  ?tol:float -> ?max_iter:int ->
  f:(float -> float) -> lo:float -> hi:float -> unit -> float * float
(** [section_min ~f ~lo ~hi ()] minimises a unimodal [f] on
    [\[lo, hi\]], returning [(argmin, min)]. *)
