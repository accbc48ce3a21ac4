(** Mutable gate-level netlists.

    A netlist is a DAG of nodes: primary inputs and cell instances.  Each
    cell node carries its gate kind, ordered fan-ins, a per-input input
    capacitance (the sizing), a threshold class and an extra wire
    capacitance on its output.  Primary outputs are designated nodes
    with a terminal load.

    The structure is mutable because the transforms (buffering,
    De Morgan) rewrite it in place; {!validate} re-checks the invariants
    after surgery and the logic/timing layers only consume validated
    netlists.

    The storage is a set of flat arrays indexed by node id — kind code,
    Vt code, [cin], wire, load, level and the packed fan-ins — plus one
    fan-out list per id.  {!Csr} hands these same arrays to the timing
    hot path, so a scalar edit is visible there at once; only the order
    and the packed fan-out adjacency are derived, after structural
    edits.  The netlist also keeps an append-only {e dirty log} of nodes
    whose local timing may have changed.  Observers ({!Pops_sta.Timing})
    keep a cursor into the log via {!revision}/{!dirty_since} and
    re-propagate arrivals only from the logged nodes.  See
    [docs/performance.md] for the invalidation protocol. *)

type node_kind = Primary_input | Cell of Pops_cell.Gate_kind.t

(** An allocating view of one node, read off the arrays by {!node}. *)
type node = private {
  id : int;
  kind : node_kind;
  fanins : int array;  (** ordered; empty for inputs; a copy *)
  fanouts : int list;  (** each consumer once *)
  cin : float;  (** input capacitance per input pin, fF *)
  wire : float;  (** extra capacitance on the output net, fF *)
  vt : Pops_process.Vt.t;
      (** threshold class of the instance; {!Pops_process.Vt.Lvt} for
          inputs and freshly built gates *)
}

type t

val create : ?capacity:int -> Pops_process.Tech.t -> t
(** An empty netlist with room for [capacity] nodes (default 64) before
    its per-node storage first doubles.  A builder that knows its size
    up front (a parse, a generator) passes it and skips the regrowth;
    ids and results do not depend on it. *)

val tech : t -> Pops_process.Tech.t

val add_input : ?name:string -> t -> int
(** New primary input node; returns its id. *)

val add_gate : ?cin:float -> ?wire:float -> t -> Pops_cell.Gate_kind.t -> int array -> int
(** [add_gate t kind fanins] adds a cell node ([cin] defaults to the
    process minimum).
    @raise Invalid_argument on arity mismatch or unknown fan-in ids. *)

val set_output : t -> int -> load:float -> unit
(** Mark a node as primary output with the given terminal load (fF);
    calling again updates the load. *)

val node : t -> int -> node
(** A view of every attribute of one node, for tests and reference
    oracles; the accessors below read one attribute without allocating
    (except {!fanins}).
    @raise Invalid_argument on an unknown or deleted id, like every
    accessor below. *)

val node_exists : t -> int -> bool

val kind : t -> int -> node_kind
val cin : t -> int -> float
(** Input capacitance per input pin, fF; [0.] for inputs. *)

val wire : t -> int -> float
val fanins : t -> int -> int array
(** The fan-in ids in pin order, as a fresh array. *)

val fanouts : t -> int -> int list
(** The consumers of a node, each once, newest first. *)

val gate_kind : t -> int -> Pops_cell.Gate_kind.t
(** @raise Invalid_argument on a primary input or an unknown id. *)

val inputs : t -> int list
(** Primary input ids in creation order; cached, so a query allocates
    nothing. *)

val outputs : t -> (int * float) list
(** Primary output ids with terminal loads, in designation order: a
    list view of {!output_ids}, built on the first call after a
    designation change and cached. *)

val output_ids : t -> int array
(** The primary output ids in designation order, in slots [0] to
    [output_count t - 1]: the storage behind {!outputs}, for scans that
    must not allocate per output.  Read it, never write it; a later
    designation may replace or rewrite the array.  Designating a new
    output and moving a designation ({!rewire_fanouts}) are O(1). *)

val output_count : t -> int

val is_output : t -> int -> bool
(** O(1) test against the dense terminal-load mirror; false for unknown
    ids. *)

val gate_ids : t -> int list
(** All live cell-node ids, ascending. *)

val gate_count : t -> int
val input_count : t -> int

val set_cin : t -> int -> float -> unit
(** Resize a gate.  @raise Invalid_argument on inputs or bad sizes. *)

val set_wire : t -> int -> float -> unit
(** Set the extra wire capacitance on a node's output (fF, >= 0). *)

val set_fanin : t -> int -> pin:int -> int -> unit
(** Rewire one fan-in pin (fanout lists are updated). *)

val replace_kind : t -> int -> Pops_cell.Gate_kind.t -> unit
(** Change a gate's kind.  @raise Invalid_argument if the arity differs. *)

val set_vt : t -> int -> Pops_process.Vt.t -> unit
(** Change a gate's threshold class.  Non-structural (widths, loads and
    edges are untouched): only the gate's own stage delay and leakage
    change, so observers re-propagate just its forward cone.  No-op when
    the class is unchanged.  @raise Invalid_argument on inputs. *)

val vt_of : t -> int -> Pops_process.Vt.t
(** Threshold class of a node ({!Pops_process.Vt.Lvt} for inputs and
    freshly allocated gates). *)

val rewire_fanouts : t -> from_:int -> to_:int -> except:int list -> unit
(** Point every fan-out pin reading [from_] (except the listed consumer
    ids) at [to_]; primary-output designations on [from_] move too. *)

val delete_gate : t -> int -> unit
(** Remove a node with no fan-outs.
    @raise Invalid_argument if consumers remain or it is an output. *)

val topological_order : t -> int list
(** All live nodes, inputs first: the derived order of {!Csr.node_of},
    as a list.
    @raise Pops_robust.Diag.Fatal with a {!Pops_robust.Diag.Netlist_cycle}
    diagnostic naming the actual loop on a cyclic netlist. *)

val depth : t -> int
(** Longest input-to-output path in gate counts, read off the derived
    level offsets (pure resizes keep them). *)

val count_level_ge : t -> int -> int
(** [count_level_ge t l] is the number of live nodes whose topological
    level is [>= l], in O(1) from the derived level offsets.  Observers
    use it to bound
    the worst-case fan-out cone of an edit at level [l]: on narrow, deep
    circuits the bound is tight and lets {!Pops_sta.Timing.update} trade
    its worklist for a straight-line sweep. *)

val level : t -> int -> int
(** Cached topological level of a node: 0 for primary inputs, one above
    the deepest fan-in for gates.  Every edge goes from a strictly lower
    to a strictly higher level, so processing nodes in level order is a
    valid propagation order.
    @raise Pops_robust.Diag.Fatal on a cycle (see {!topological_order}). *)

val load_on : t -> int -> float
(** Capacitive load on a node's output: fan-out input capacitances +
    wire + terminal load if it is a primary output.  Cached; mutators
    invalidate only the nets they touch and the value is recomputed (with
    the identical fold, so bit-identical) on the next query. *)

(** Flat compressed-sparse-row view of the netlist, the storage the
    timing hot path runs on.  All arrays are indexed either by node id
    (kind codes, sizes, loads, adjacency offsets) or by {e order index}
    (the (level, id)-sorted live-node permutation), so a propagation
    sweep touches only unboxed [int]/[float] arrays — no records, no
    lists, no allocation.

    The by-id scalar arrays and the fan-ins are the netlist's own
    storage, not copies: a scalar edit (size, wire, kind, Vt, terminal
    load) writes them, so it is visible through a [Csr.t] at once, and
    {!csr} then only refreshes the loads the dirty log names.  Only the
    order ({!node_of}, {!pos}, {!level_off}) and the packed fan-out
    adjacency are derived, by the first {!csr} after a structural edit
    (adding, rewiring or deleting nodes), and patched in place from the
    previous order where they can be.  Such an edit may also move or
    rewrite the arrays themselves, so do not hold a [Csr.t] or its
    arrays across one.  Every array may be longer than what it holds:
    read {!node_of} below {!length}, {!pos} below {!bound},
    {!level_off} up to [depth + 1] and {!fanout_off} up to {!bound}. *)
module Csr : sig
  type t

  val code_kinds : Pops_cell.Gate_kind.t array
  (** The cell kinds in kind-code order: [code_kinds.(code)] is the kind
      encoded as [code] in {!kind_code}. *)

  val code_of_kind : node_kind -> int
  (** The {!kind_code} encoding of one node kind: [-1] for primary
      inputs, [-2] for cells outside {!code_kinds} (per-kind coefficient
      tables index by this without a [Csr.t] in hand). *)

  val bound : t -> int
  (** Exclusive id bound of the derived order ({!Netlist.id_bound} when
      it was derived). *)

  val length : t -> int
  (** Number of live nodes (the length of {!node_of}). *)

  val node_of : t -> int array
  (** Live ids sorted by (level, id) — the topological order. *)

  val pos : t -> int array
  (** By id: index into {!node_of}, [-1] for dead ids. *)

  val level_off : t -> int array
  (** Level [l] occupies {!node_of} indices [level_off.(l)] to
      [level_off.(l+1) - 1], for [l] up to {!depth}. *)

  val depth : t -> int

  val kind_code : t -> int array
  (** By id: [-1] for primary inputs, [-2] for cells outside
      {!code_kinds}, [-3] for dead ids, else an index into {!code_kinds}.
      This array and {!vt_code}, {!cin} and {!load} span the netlist's
      node capacity, at least {!bound}. *)

  val vt_code : t -> int array
  (** By id: {!Pops_process.Vt.to_int} of the node's threshold class
      (0 = LVT for inputs). *)

  val cin : t -> float array
  (** By id: input capacitance per pin, fF. *)

  val load : t -> float array
  (** By id: the {!Netlist.load_on} memo, refreshed by {!csr}
      (bit-identical to the query). *)

  val fanin_off : t -> int array
  (** By id, at least [bound + 1] long: node [id]'s fan-ins are
      [fanin.(fanin_off.(id))] to [fanin.(fanin_off.(id+1) - 1)], in pin
      order. *)

  val fanin : t -> int array

  val fanout_off : t -> int array
  (** Like {!fanin_off} for the packed consumer array, read up to
      {!bound}; entries follow the node's fanout-list order, so folds
      over them replay list folds bit-identically. *)

  val fanout : t -> int array
end

val csr : t -> Csr.t
(** The CSR view, its order derived and its loads refreshed as needed
    (see {!Csr}).  Levels are (re)computed first when stale.
    @raise Pops_robust.Diag.Fatal on a cyclic netlist (see
    {!topological_order}). *)

val revision : t -> int
(** Monotone edit counter: the current length of the dirty log.  Equal
    revisions mean no timing-relevant mutation happened in between. *)

val dirty_since : t -> int -> int list
(** [dirty_since t cursor] returns the ids logged by mutators since
    [cursor] (a previous {!revision} result), oldest first.  Ids may
    repeat and may refer to since-deleted nodes.
    @raise Invalid_argument on a cursor outside [0..revision t]. *)

val id_bound : t -> int
(** Exclusive upper bound on all node ids ever allocated (dense-array
    sizing for id-indexed observers). *)

val live_count : t -> int
(** Number of live nodes (inputs + gates). *)

val validate : t -> (unit, string) result
(** Full invariant check: arities, dangling ids, fanin/fanout symmetry,
    acyclicity, positive sizes.  The first error-severity diagnostic of
    {!validate_diags}, on one line. *)

val validate_diags : ?name:(int -> string) -> t -> Pops_robust.Diag.t list
(** The diagnostic validation pass behind {!validate}: reports {e every}
    violation — dangling references ([Netlist_dangling]), gates driving
    nothing that are not outputs ([Netlist_zero_fanout], a warning),
    non-positive input capacitances ([Netlist_bad_cin]) and
    combinational loops ([Netlist_cycle], message walking the actual
    cycle in signal-flow order) — instead of stopping at the first.
    Empty means valid (zero-fanout warnings excepted: they degrade
    quality, not correctness).  [name] renders node ids in messages;
    the CLI passes the .bench signal names. *)

val validated : t -> bool
(** Whether {!validate_diags} found no error at the current {!revision}:
    every edit moves the revision, a copy of a validated netlist starts
    validated and {!restore} clears it. *)

val kind_histogram : t -> (Pops_cell.Gate_kind.t * int) list
val total_area : t -> Pops_cell.Library.t -> float
(** Total transistor width [Sigma W] over all gates, um. *)

val total_leakage_area : t -> Pops_cell.Library.t -> float
(** Leakage-weighted width: each gate's [Sigma W] scaled by the
    subthreshold-leakage factor of its Vt class.  The fold runs in the
    same order as {!total_area}, so an all-LVT netlist (every factor
    exactly 1.0) weighs bit-identically to its plain area. *)

val copy : t -> t
(** Deep copy (transforms mutate; benchmarks compare variants): one
    [Array.copy] per stored array.  A current derived order carries over,
    shared, as do the immutable fan-out lists; the first refresh after
    the copy, on either side, then allocates its own order. *)

val restore : t -> from:t -> unit
(** [restore t ~from] rewinds [t] in place to the state captured earlier
    by [copy t].  The edit history of [t] is kept and every node live on
    either side of the rewind is appended to it, so incremental observers
    holding a cursor ({!revision}/{!dirty_since}) resync on their next
    update instead of going stale.  [from] is not aliased: restoring
    twice from the same copy is fine.  The next {!csr} derives the order
    from nothing. *)

val pp_stats : Format.formatter -> t -> unit
