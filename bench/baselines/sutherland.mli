(** The equal-delay-per-stage constraint distribution (Sutherland/Mead,
    paper refs [4,15]): every stage gets the budget [tc / n].  The fast
    classical method the paper compares against — it oversizes gates
    with large logical weight; the benchmark harness quantifies the area
    gap against {!Pops_core.Sensitivity.size_for_constraint}. *)

val size : ?iters:int -> Pops_delay.Path.t -> tc:float -> float array
(** The sizing after [iters] (default 4) rounds of re-budgeting with the
    previous round's slopes. *)
