(** The multi-tenant optimization job engine.

    A long-lived engine turns the one-netlist-per-process CLI into a
    service: batches of {!Job.t}s are admitted sequentially (per-tenant
    {!Pops_robust.Budget} accounting, parsed-netlist cache probes), then
    executed concurrently over the shared {!Pops_util.Pool} with the
    PR 5 contained-task machinery — a job that crashes (or is killed by
    an armed [POPS_FAULT] point) degrades to a [Failed] result line and
    cannot touch any other job.

    Determinism contract: with wall-clock caps disabled (the default),
    every {!Job.result} rendered with [times:false] is a pure function
    of the job stream — bit-identical whether the batch ran on 1 domain
    or N, in one batch or many, and identical to running each job alone
    in a fresh process with the same engine configuration.  The pieces
    that make this true: intake (admission, budget reservation, cache
    verdicts) is sequential in submission order; results are emitted in
    submission order; the caches are semantically transparent (a hit
    replays the cached computation's outcome, and the {!Pops_core.Bounds}
    LRU is keyed by path uids that are never shared across jobs); and
    the underlying flow is bit-identical at any domain count (PR 2).

    Tenant budgets are the one stateful coupling between jobs, and they
    are applied at {e batch} granularity: a job's sweep spend is charged
    to its tenant when its batch completes, so admission decisions are
    deterministic in the job stream and a tenant can overshoot its cap
    by at most one window of jobs.  One tenant exhausting its budget
    starves only itself: other tenants' admissions are untouched. *)

type config = {
  window : int;  (** max jobs fanned out per batch (≥ 1) *)
  tenant_sweeps : int option;
      (** aggregate solver-sweep budget per tenant; [None] = unlimited *)
  job_sweeps : int option;  (** per-job sweep cap *)
  job_wall_ms : float option;
      (** per-job wall-clock cap.  Protection against pathological
          inputs at the cost of determinism (a wall cap makes results
          timing-dependent); off by default. *)
  netlist_cache : int;  (** parsed-netlist LRU capacity *)
  bounds_cache : int;
      (** {!Pops_core.Bounds} memo capacity installed by {!create} *)
  out_load : float option;  (** [.bench] terminal load override, fF *)
  default_tc_ratio : float;
      (** [tc] when a job gives neither [tc_ps] nor [tc_ratio], as a
          multiple of the initial STA critical delay (0.8) *)
  default_max_rounds : int;  (** flow rounds when the job does not say (20) *)
  times : bool;  (** include wall-clock [ms] fields in result lines *)
}

val default_config : config
(** window 16, unlimited budgets, no wall caps, netlist cache 64,
    bounds cache {!Pops_core.Bounds.default_cache_capacity}, times on. *)

type t

val create : ?config:config -> Pops_process.Tech.t -> t
(** Also installs [config.bounds_cache] as the {!Pops_core.Bounds} memo
    capacity (that memo is process-global). *)

val config : t -> config

val run_batch : t -> Job.t list -> Job.result list
(** Admit, execute and account one batch (callers should respect
    [config.window]; the engine does not split oversized batches).
    Results are in submission order, one per job, always — rejection,
    invalid input and crashes are result lines, never exceptions.
    [Health] jobs are answered at intake (engine/cache/pool state) and
    can never be starved by a tenant budget or another job's crash. *)

val run_job : t -> Job.t -> Job.result
(** A batch of one. *)

val count : t -> Job.result -> unit
(** Account a result decided before its job reached the engine (a
    request line rejected at decode, or one discarded as oversize) in
    {!jobs_run} and the status counts of {!summary_json}, as
    {!run_batch} accounts its own results. *)

val jobs_run : t -> int

val summary_json : t -> Json.t
(** The end-of-stream summary line: job counts by status, parsed-netlist
    and bounds-memo cache counters, per-tenant accounting (sorted by
    tenant name). *)
