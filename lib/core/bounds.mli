(** Path delay bounds (Section 3.1): the optimization-space
    characterisation that makes constraint feasibility decidable.

    - [Tmax]: the pseudo upper bound — every gate at the minimum available
      drive (no upper bound exists without a size limit, so the paper
      takes the realistic minimum-area configuration);
    - [Tmin]: the lower bound, reached when every interior gate satisfies
      the link equations (eq. 4, i.e. zero delay sensitivity), solved by
      {!Sensitivity.solve} (projected Newton on the same equations; the
      Gauss–Seidel fixed point is the fallback and the Fig. 1 trace). *)

type t = {
  tmin : float;
      (** minimum achievable worst-polarity delay, ps
          ({!Sensitivity.minimum_delay}) *)
  tmax : float;  (** worst-polarity delay at minimum drive, ps *)
  sizing_tmin : float array;  (** the sizing achieving [tmin] *)
  beta_tmin : float;
      (** the polarity weight whose link equations produced
          [sizing_tmin] (see {!Sensitivity.solve}) *)
}

val compute : Pops_delay.Path.t -> t
(** Memoized by {!Pops_delay.Path.uid}: a path value is immutable and
    every structural edit or polarity flip constructs a fresh uid, so
    repeated characterisations of the same path — feasibility check,
    constraint sizing, reporting — pay the Tmin solves once.
    Thread-safe (the table is mutex-guarded; the solve itself runs
    outside the lock).

    The memo is a {e bounded LRU} ({!Pops_util.Lru}), so a long-lived
    process (the serving engine) holds a fixed working set instead of
    leaking one entry per path ever characterised.  The default capacity
    ({!default_cache_capacity}) comfortably covers a one-shot CLI run,
    preserving its historical behaviour. *)

val default_cache_capacity : int
(** 256 — the reset bound of the pre-LRU memo. *)

val set_cache_capacity : int -> unit
(** Resize the memo (shrinking evicts oldest-first).  The serving engine
    scales it to its job window.  @raise Invalid_argument below 1. *)

val cache_stats : unit -> Pops_util.Lru.stats
(** Hit/miss/eviction counters of the memo — a miss is a full
    characterisation solve.  Surfaced in serve-mode reports. *)

val clear_cache : ?reset_stats:bool -> unit -> unit
(** Drop every memo entry (benchmarks use this to measure cold starts);
    [reset_stats] (default false) also zeroes the counters. *)

val tmin : Pops_delay.Path.t -> float
(** [(compute path).tmin] — shares the cache. *)

val tmax : Pops_delay.Path.t -> float
(** The minimum-drive worst delay.  Served from the cache when the path
    was already characterised, otherwise computed directly (two delay
    evaluations) without triggering the full [Tmin] solve. *)

type trace_point = {
  sum_cin_ratio : float;  (** [Sigma C_IN / C_REF] — Fig. 1's x axis *)
  delay : float;  (** path delay at this iterate — Fig. 1's y axis *)
}

val tmin_trace : Pops_delay.Path.t -> trace_point list
(** The (area, delay) trajectory of the fixed-point iterations from the
    minimum-drive initial solution to the optimum — the paper's Fig. 1. *)

val feasible : Pops_delay.Path.t -> tc:float -> bool
(** Whether a delay constraint can be met by sizing alone
    ([tc >= tmin]). *)

val verify_stationary :
  ?tol:float -> ?a:float -> ?beta:float -> Pops_delay.Path.t -> float array -> bool
(** True when the [beta]-weighted polarity gradient (default balanced,
    0.5) equals the constant-sensitivity target [a * aw_j] (default
    [a = 0.], the minimum-delay link equations) within [tol] ps/fF at
    every interior entry of [sizing] — i.e. the sizing really is the
    {!Sensitivity.solve} optimum for that [a] and [beta].  Entries at the
    path kernel's drive bounds ([lo]/[hi]) are exempt (their optimum may
    lie outside the box).  Used by tests and the CLI's [--check] flag. *)
