(** Small summary-statistics helpers for the benchmark harness. *)

val mean : float array -> float
(** Arithmetic mean; 0. on the empty array. *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [\[0, 100\]], linear interpolation between
    order statistics; 0. on the empty array. *)
