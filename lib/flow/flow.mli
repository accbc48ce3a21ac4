(** The netlist-level optimization flow — the "Path Selection" in POPS.

    The path engine of [Pops_core] optimizes one bounded path; a real
    circuit is closed only when {e every} path meets the constraint.
    This module runs the tool's outer loop on a netlist:

    + STA; if the critical delay meets [tc], done;
    + extract the critical path (or the K worst) as bounded paths;
    + run the protocol on each: sizing, buffer insertion (series pairs
      and branch shields), De Morgan restructuring;
    + apply the decisions back to the netlist — sizes via
      {!Pops_sta.Paths.apply_sizing}, buffers and rewrites via the
      {!Pops_netlist.Transform} surgeries — and re-run STA;
    + iterate until timing is met, no progress is possible, or the
      iteration budget runs out.

    Every structural surgery preserves the logic function; {!optimize_o}
    re-checks equivalence against the input netlist and reports it. *)

type outcome = Met | No_progress | Budget_exhausted

type iteration = {
  round : int;
  critical_delay : float;  (** STA delay at the start of the round, ps *)
  strategy : Pops_core.Protocol.strategy;
  path_gates : int;  (** length of the path optimised this round *)
}

type report = {
  outcome : outcome;
  initial_delay : float;  (** STA critical delay before, ps *)
  final_delay : float;  (** after, ps *)
  initial_area : float;  (** [Sigma W] before, um *)
  final_area : float;
  iterations : iteration list;  (** oldest first *)
  buffers_added : int;  (** inverters added by pairs and shields *)
  rewrites : int;  (** De Morgan rewrites applied *)
  stale_decisions : int;
      (** protocol decisions dropped because a structural surgery earlier
          in the same round deleted a node their cone snapshot still
          points to (previously discarded silently) *)
  equivalence : (unit, string) result;
      (** logic check of the final netlist against the input *)
  protocol_ms : float;
      (** wall-clock solver time: the per-round parallel protocol
          fan-outs (the domain-pool phase) plus the end-of-round
          critical-path re-size after structural surgery, summed over
          all rounds. *)
  analysis_ms : float;
      (** wall-clock time of the timing-analysis portion, bracketed
          directly: the initial analyze, the per-round critical-delay
          query, the per-round worst-cone selection and the window-tail
          slack reads, where the lazy backward sweeps run.  Everything
          else in [loop_ms]
          is protocol fan-outs, structural surgery and best-state
          bookkeeping. *)
  loop_ms : float;
      (** wall-clock time of the whole optimization loop — analysis,
          selection, protocol, apply, rewind — excluding the initial
          reference copy and the final equivalence check *)
  vt : Vt_assign.report option;
      (** the multi-Vt leakage pass, when requested with [~vt_assign] —
          runs after the sizing loop and the best-state rewind *)
}

val optimize_o :
  ?budget:Pops_robust.Budget.t ->
  ?max_rounds:int ->
  ?allow_restructure:bool ->
  ?k_paths:int ->
  ?vt_assign:bool ->
  ?name:(int -> string) ->
  lib:Pops_cell.Library.t ->
  tc:float ->
  Pops_netlist.Netlist.t ->
  report Pops_robust.Outcome.t
(** [optimize_o ~lib ~tc netlist] mutates [netlist] in place and returns
    the report as an {!Pops_robust.Outcome}.  [max_rounds] defaults to
    20; [k_paths] (default 3) is how many of the worst {e gate-disjoint}
    critical cones are optimised per round; [allow_restructure] defaults
    to true.  The equivalence check runs on a pre-flow copy kept
    internally.

    It runs {!Pops_netlist.Netlist.validate_diags} first and returns
    [Failed] with the first error-severity diagnostic (cycle, dangling
    reference, bad cin) {e before} touching the netlist; [name] renders
    node ids in those messages.  Otherwise the result is [Exact] on a
    clean met constraint, and [Degraded] with the collected diagnostics
    when anything degraded or the constraint finished unmet
    ({!Pops_robust.Diag.Constraint_infeasible} appended); it returns
    [Failed] instead of raising.

    One {!Pops_sta.Timing.t} persists across rounds, so each round
    re-times only the fan-out cone of its edits.  The endpoint ranking
    ({!Pops_sta.Paths.k_worst_incr}) is one scan of the outputs per
    round, and required times are swept only behind the nodes whose
    slack the round reads (see {!Pops_sta.Timing.node_slack}).

    Resilience: the per-round protocol fan-out is {e contained} (a
    crashing path task degrades to a diagnostic, the other decisions
    still apply), every solver underneath runs the fallback ladder (see
    {!Pops_core.Sensitivity.rung}), and the best-state rollback
    guarantees the returned netlist is never slower than the best state
    visited — in the worst case the untouched input, whose delay is the
    Tmax bound of its paths.  [budget] bounds the run (one unit per
    round plus the solver sweeps underneath); exhaustion ends the flow
    with [Budget_exhausted] and the usual rollback.

    With [vt_assign] (default false) the {!Vt_assign} leakage pass runs
    once after the sizing loop and its best-state rewind, on the same
    persistent timing annotation, and its report lands in the [vt]
    field; it trades remaining positive slack for lower leakage and
    never un-meets a met constraint. *)

val outcome_to_string : outcome -> string
val pp_report : Format.formatter -> report -> unit
