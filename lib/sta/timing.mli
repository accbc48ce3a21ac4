(** Static timing analysis over a sized netlist.

    Arrival times and output transition times are propagated in
    topological order using the closed-form delay model (eqs. 1–3),
    separately for rising and falling node transitions.  Each gate
    evaluates every fan-in: the fan-in's arrival plus the stage delay
    computed with the gate's size, its total output load and the
    fan-in's transition time; the worst result per output edge wins and
    remembers which fan-in produced it (for path backtracking).

    Inverting cells map a rising input to a falling output and vice
    versa; XOR-class cells propagate both input edges to both output
    edges (conservative).

    The analysis is {e incremental}: arrivals live in dense arrays
    indexed by node id, and a {!t} remembers its position in the
    netlist's dirty log.  After netlist mutations, {!update} (called
    automatically by every query) pops a level-ordered worklist seeded
    with the dirtied nodes and re-propagates rise/fall arrivals only
    while they actually change — a re-evaluated node whose inputs did
    not move reproduces its arrival bit for bit and stops the wave.
    Keep one [t] alive across an edit loop instead of re-running
    {!analyze} per round. *)

type arrival = {
  time : float;  (** worst arrival, ps *)
  slope : float;  (** transition time of that worst event, ps *)
  from_ : (int * Pops_delay.Edge.t) option;
      (** fan-in node and its edge producing the worst arrival;
          [None] at primary inputs *)
}

type t
(** Timing annotation of one netlist under one sizing state. *)

val analyze :
  ?input_slope:float -> ?input_arrival:float ->
  lib:Pops_cell.Library.t -> Pops_netlist.Netlist.t -> t
(** Run STA from scratch.  [input_slope] defaults to [2 * tau];
    [input_arrival] to 0 for every primary input.

    The pass sweeps the netlist's {!Pops_netlist.Netlist.Csr} snapshot
    level by level with an allocation-free inner loop, sequentially; the
    result is bit-identical to {!analyze_reference}. *)

val analyze_reference :
  ?input_slope:float -> ?input_arrival:float ->
  lib:Pops_cell.Library.t -> Pops_netlist.Netlist.t -> t
(** The pre-CSR implementation of {!analyze}: per-node record-based
    evaluation over the list topological order, sequential.  The oracle
    for the CSR-vs-legacy equivalence suite and the baseline the
    [sta_scale] benchmark reports speedups against; not for production
    use. *)

val update : t -> unit
(** Fold the netlist edits since the last analysis/update back into the
    arrival arrays: seeds a worklist with the dirty-log entries, pops it
    in topological-level order and re-evaluates nodes, propagating to
    fan-outs only when an arrival's time or slope actually changed.
    Results are bit-identical to a fresh {!analyze} of the mutated
    netlist.  All query functions call this implicitly; it is exposed
    for benchmarks and for forcing the propagation cost at a chosen
    point. *)

val arrival : t -> int -> Pops_delay.Edge.t -> arrival
(** Worst arrival of the given edge at a node's output.
    @raise Not_found for unknown nodes. *)

val node_worst : t -> int -> Pops_delay.Edge.t * arrival
(** Worst arrival over both edges at a node. *)

val critical_delay : t -> float
(** Worst arrival over all primary outputs and edges.  One loop over the
    outputs' arrival slots per revision: a repeated query at the same
    revision (this, {!critical_path}) reuses the endpoint it found. *)

val critical_path : t -> int list
(** Node ids (primary input included) of the critical path, source
    first. *)

val path_through : t -> int -> int list
(** Critical path constrained to end at the given node. *)

val path_length : t -> int -> int
(** [List.length (path_through t id)] at provenance-pointer-walk cost:
    no per-step arrival records.
    @raise Not_found if no arrival reaches [id]. *)

val path_window : t -> int -> skip:int -> len:int -> int list
(** The [len] nodes of {!path_through}'s result starting [skip] steps
    upstream of the endpoint (so [skip = 0] is the endpoint-side
    window), source side first; shorter when the path ends inside the
    window.  Only the window is materialized; {!Paths.k_worst_incr}
    calls this for the cones it selects.
    @raise Not_found if no arrival reaches [id]. *)

val window_marked : t -> int -> skip:int -> len:int -> int array -> int -> bool
(** [window_marked t id ~skip ~len stamp mark] is whether some node of
    [path_window t id ~skip ~len] has [stamp.(node) = mark], by the same
    walk, allocating nothing: the disjointness probe of
    {!Paths.k_worst_incr}, which discards most candidates it probes.
    [stamp] must cover every id below the netlist's id bound.
    @raise Not_found if no arrival reaches [id]. *)

val min_clock_period : ?setup:float -> t -> float
(** Minimum clock period for a netlist whose registers were split into
    pseudo primary inputs/outputs (as {!Pops_netlist.Bench_io} does for
    [DFF]s): the worst input-to-output arrival plus a setup time
    (default: one process [tau]). *)

val slack : t -> tc:float -> int -> float
(** [tc - worst arrival at node] — positive means timing met at that
    node for constraint [tc] (a path-level required-time view; the
    protocol operates on extracted paths, this is for reporting). *)

(** {2 Required times and slacks}

    The backward mirror of the arrival engine: per-node, per-edge
    {e required} times propagated from the primary outputs (required
    [tc] there) against the signal flow, and the per-node worst slack
    [required - arrival].

    Slacks are {e lazy} and always answer for the netlist's current
    revision, as arrival queries do: every query first brings the
    arrivals up to date ({!update}).  What a query costs:
    - a deleted or out-of-range id: O(1), undefined;
    - a sink (a node that drives no gate): O(1), read off its arrivals,
      since its required time is [tc] if it is an output and undefined
      otherwise;
    - a node with fan-out: the backward recurrence over the suffix of
      the reverse levelized CSR order down to the node's position, minus
      whatever suffix an earlier query at the same revision already
      swept.  The first query after an edit re-sweeps from the end.

    An edit costs nothing here until the next query.  Every value is
    bit-identical to {!slacks_reference} over the whole netlist.

    Queries mutate the annotation (arrivals, and the swept suffix), so
    run them on one domain, like arrival queries. *)

type slacks
(** Required-time/slack annotation bound to one {!t} and one [tc]. *)

val slacks_make : t -> tc:float -> slacks
(** A lazy annotation: brings the arrivals up to date, sweeps nothing. *)

val slacks_reference : t -> tc:float -> slacks
(** The record-based from-scratch oracle (per-consumer
    {!Pops_delay.Model.stage_delay} over the reverse list topological
    order, every node): what the equivalence suites compare the lazy
    queries against.  It answers from its own arrays at the revision
    it was built at; queried after an edit it recomputes like
    {!slacks_make}.  Not for production use. *)

val slacks_update : slacks -> unit
(** Bring the annotation to the current revision: runs {!update} and
    drops the swept suffix if the netlist moved.  Every query does this
    itself; calling it only moves the arrival update to a chosen
    point. *)

val slacks_timing : slacks -> t
val slacks_tc : slacks -> float

val required : slacks -> int -> Pops_delay.Edge.t -> float
(** Required time of the given edge at a node's output.
    @raise Not_found when undefined (a deleted or unknown id, no arrival
    through that edge, or no constrained path downstream). *)

val node_slack : slacks -> int -> float
(** Worst [required - arrival] over both edges; negative means the node
    lies on a violating path.  [nan] when undefined (deleted and unknown
    ids included). *)

val worst_endpoints : slacks -> min_slack:float -> limit:int -> int list
(** The ids of the [limit] lowest primary outputs by (slack, id) among
    those with slack below [min_slack], ascending: one loop over
    {!Pops_netlist.Netlist.output_ids} that allocates nothing per
    output.  Undefined (nan) slacks never qualify. *)
