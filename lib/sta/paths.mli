(** Path selection and extraction — the "PS" of POPS.

    The optimizer works on {e bounded combinational paths}; this module
    extracts them from netlists: the critical path, or the K most
    critical paths (paper ref. [11]), each converted to a
    {!Pops_delay.Path.t} whose per-stage branch loads are the off-path
    fan-out capacitances of the real circuit.  After optimization,
    {!apply_sizing} writes the gate sizes back into the netlist. *)

type extracted = {
  nodes : int list;  (** gate ids along the path, source side first *)
  path : Pops_delay.Path.t;  (** the bounded-path view *)
  total_gates : int;
      (** length of the full source path this extraction was windowed
          from ([List.length nodes] when nothing was windowed away);
          lets the flow tell a saturated short path from a long one
          with un-walked upstream windows *)
}

val extract :
  ?input_slope:float -> lib:Pops_cell.Library.t ->
  Pops_netlist.Netlist.t -> int list -> extracted
(** [extract ~lib t nodes] builds the bounded path through the given
    gate ids (a primary-input head is dropped automatically): stage [i]'s
    branch load is everything node [i] drives except the next on-path
    gate; the terminal load is everything the last node drives plus its
    output load.
    @raise Invalid_argument if the ids are not a connected gate chain. *)

val critical :
  ?input_slope:float -> ?timing:Timing.t -> ?max_cone:int -> ?phase:int ->
  lib:Pops_cell.Library.t -> Pops_netlist.Netlist.t -> extracted
(** {!extract} on the STA critical path.  Pass [timing] (an analysis of
    the same netlist) to reuse it incrementally — it is brought up to
    date with {!Timing.update} instead of re-running {!Timing.analyze}
    from scratch.  [max_cone] windows the extraction to [max_cone] path
    nodes — [phase] (default 0) picks which window, counted from the
    endpoint, wrapping past the head (a window holding only the primary
    input wraps to phase 0); by default the whole path is extracted. *)

type scratch
(** Reusable enumeration state for {!k_worst}: the per-node metric
    arrays, the search-tree arena and the unboxed priority queue.
    Create one with {!make_scratch}, hand it to repeated calls (grown on
    demand, never shrunk) and the enumerator's steady-state allocation
    drops to the materialized winner paths.  Not thread-safe: one
    scratch per domain. *)

val make_scratch : unit -> scratch

val k_worst :
  ?scratch:scratch -> ?k:int -> ?input_slope:float ->
  lib:Pops_cell.Library.t -> Pops_netlist.Netlist.t -> extracted list
(** The [k] (default 5) most critical {e distinct} input-to-output paths
    by STA delay, worst first, found by best-first enumeration with
    longest-suffix pruning.

    The search tree lives in a flat arena (node, parent, distance
    arrays) over the netlist's {!Pops_netlist.Netlist.Csr} snapshot —
    no per-path lists are built while enumerating, so memory is
    [O(V + E + k * depth)] even on million-gate designs; only the
    surviving candidates are materialized by walking parent pointers.
    Pass [scratch] to reuse the arrays across calls; results are
    identical with or without it. *)

type incr
(** Slack-driven path selection state: a {!Timing.slacks} annotation
    bound to the netlist whose endpoints it ranks.  Build once per
    optimization loop with {!incr_make}. *)

val incr_make : Pops_netlist.Netlist.t -> Timing.slacks -> incr
(** Bind a slacks annotation to the netlist it times (it must belong to
    a timing of that netlist). *)

val k_worst_incr :
  ?k:int -> ?min_slack:float -> ?max_cone:int -> ?phase:int ->
  ?input_slope:float -> lib:Pops_cell.Library.t -> incr -> extracted list
(** Up to [k] (default 5) {e gate-disjoint} critical cones through the
    currently worst-slack endpoints, worst first.  Ranks the primary
    outputs whose slack is below [min_slack] (default [0.]: timing met
    there, nothing critical remains) by (slack, id) at the current
    revision ({!Timing.worst_endpoints}), keeping the [max 64 (16 k)]
    lowest — on high-fanout designs thousands of
    violating endpoints share one spine, probing them all costs more
    than the round's re-timing, and the flow only needs the worst few
    disjoint cones.  It probes those in order, skipping any cone that
    shares a gate with an already selected one, until [k] cones are
    selected.  Each cone is one window of at most [max_cone] (default
    48) path nodes: the protocol underneath is a bounded-path engine,
    and a bounded edit window keeps the next round's incremental re-time
    confined to a small cone.  [phase] (default 0) picks the window —
    0 is the endpoint side, each higher phase one window further
    upstream, wrapping past the head; callers advance it when the
    current windows stop yielding improvement ({!extracted.total_gates}
    tells how many windows a cone has).  The result is what sorting
    every endpoint by (slack, id) and probing the same bounded prefix
    picks. *)

val k_worst_reference :
  ?k:int -> ?input_slope:float -> lib:Pops_cell.Library.t ->
  Pops_netlist.Netlist.t -> extracted list
(** The pre-arena enumeration (cons-cell path payloads): the oracle
    {!k_worst} is tested against in the equivalence suite, and the
    baseline the [sta_scale] benchmark measures.  Same results as
    {!k_worst}, not for production use. *)

val apply_sizing : Pops_netlist.Netlist.t -> int list -> float array -> unit
(** [apply_sizing t nodes sizing] writes the path sizing back into the
    netlist (entry 0 included — the extracted path's drive stage is a
    real gate).
    @raise Invalid_argument on length mismatch. *)
