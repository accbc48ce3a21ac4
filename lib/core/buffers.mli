(** Buffer insertion and the [Flimit] metric (Section 4.1).

    Structure A: a driver gate [g] (size fixed) drives a load [C_L]
    directly.  Structure B: [g] drives an optimally sized buffer (an
    inverter pair by default) which drives [C_L].  The {e load buffer
    insertion limit} [Flimit] is the fan-out [F = C_L / C_IN(g)] beyond
    which B is faster than A: a library-characterisation metric computed
    once per (driver, gate) pair and then used to spot the critical nodes
    of a path.  Gates with a large logical weight (NOR3…) have a low
    limit — they are the inefficient gates that should be relieved
    first. *)

type buffer_style = Single_inverter | Inverter_pair

val delay_direct :
  lib:Pops_cell.Library.t ->
  driver:Pops_cell.Gate_kind.t ->
  gate:Pops_cell.Gate_kind.t ->
  gate_cin:float ->
  cload:float ->
  float
(** Structure A delay: from the input of [gate] (driven by a minimum
    [driver] setting the input slope) to the terminal load. *)

val delay_buffered :
  ?style:buffer_style ->
  lib:Pops_cell.Library.t ->
  driver:Pops_cell.Gate_kind.t ->
  gate:Pops_cell.Gate_kind.t ->
  gate_cin:float ->
  cload:float ->
  unit ->
  float * float array
(** Structure B delay with the buffer optimally sized (the driver and
    [gate] keep their sizes — the paper's local insertion), and the buffer
    sizing found. *)

val flimit :
  ?style:buffer_style ->
  lib:Pops_cell.Library.t ->
  driver:Pops_cell.Gate_kind.t ->
  gate:Pops_cell.Gate_kind.t ->
  unit ->
  float
(** The fan-out crossover where structure B starts winning (Table 2).
    Computed at a representative gate drive (4x minimum) by bisection on
    [F]; returns [infinity] when buffering never wins below F = 200. *)

val characterize_library :
  ?style:buffer_style ->
  lib:Pops_cell.Library.t ->
  driver:Pops_cell.Gate_kind.t ->
  Pops_cell.Gate_kind.t list ->
  (Pops_cell.Gate_kind.t * float) list
(** [Flimit] for each listed gate kind — the "library characterisation"
    step of the protocol (Fig. 7). *)

val path_fanouts : Pops_delay.Path.t -> float array -> float array
(** Per-stage fan-out [F_i = C_L(i) / C_IN(i)] under a sizing. *)

val critical_nodes : lib:Pops_cell.Library.t -> Pops_delay.Path.t -> int list
(** Stages whose fan-out exceeds their kind's [Flimit] — the candidates
    for buffer insertion.  Fan-outs are evaluated at the minimum-drive
    configuration (the paper's [C_REF] initial solution): after
    optimization fan-outs self-equalise and overloads hide inside
    inflated gates. *)

type shield = {
  stage : int;  (** stage whose branch load was diluted *)
  b1 : float;  (** input capacitance of the first shield inverter, fF *)
  b2 : float;  (** input capacitance of the branch-driving inverter, fF *)
  shield_area : float;  (** transistor width of the shield pair, um *)
}

type insertion_result = {
  path : Pops_delay.Path.t;  (** path with buffers inserted *)
  sizing : float array;
  delay : float;
  area : float;  (** path area plus all shield-buffer area *)
  inserted_after : int list;  (** stage indices that got a series pair *)
  shields : shield list;  (** branch loads diluted by off-path buffers *)
}

val shield_stage :
  ?fanout_target:float ->
  lib:Pops_cell.Library.t ->
  Pops_delay.Path.t ->
  at:int ->
  (Pops_delay.Path.t * shield) option
(** The paper's {e load dilution}: an inverter pair is inserted off-path
    to drive stage [at]'s branch load, so the stage now sees only the
    first shield inverter's input capacitance instead of the whole
    branch.  The shield inverters are sized for an electrical effort of
    [fanout_target] (default 4) per stage; their delay is off the
    critical path (the shielded fan-outs had slack — the very reason the
    node was overloaded).  [None] when the branch is too small for a
    shield to reduce it. *)

val insert_local :
  lib:Pops_cell.Library.t -> Pops_delay.Path.t -> float array -> insertion_result
(** Fig. 5's local insertion: every critical node's branch is diluted by
    an off-path shield pair while {e all gate sizes are conserved} ("we
    conserve the size of gates (i-1) and (i) and just size the buffer").
    The path delay can only improve; the area grows by the shield pairs
    (Fig. 8's "Local Buff"). *)

val insert_global :
  ?objective:[ `Tmin | `Area_at of float ] ->
  ?base:(Sensitivity.constraint_result, [ `Infeasible of float ]) result ->
  lib:Pops_cell.Library.t ->
  Pops_delay.Path.t ->
  insertion_result
(** Global insertion: greedily consider each critical node (most
    overloaded first) and try {e both} moves — a branch shield
    ({!shield_stage}, the usual winner on heavily fanned-out nodes) and a
    series inverter pair (wins on effort-starved structures); after each
    tentative move the whole path is re-sized — minimum delay for
    [`Tmin] (Table 3), minimum area meeting the constraint for
    [`Area_at tc] (Fig. 8's "Global Buff").  Moves that do not improve
    the objective are rolled back.

    Under [`Area_at tc] a trial is first screened by weak duality
    ({!Sensitivity.dual_bound} at the incumbent's multipliers [(a,
    beta)]): a bound that reaches the incumbent's score proves the
    trial would be rolled back, and its constraint search is skipped.
    The bound is a lower bound on every area the search can return, so
    the result is the unscreened greedy's bit for bit; only the solves
    fall, and a screened trial's search emits no diagnostics.  No screen
    runs for [`Tmin], from an infeasible incumbent or
    from one at its Tmin point ([a = 0]).

    [base], under [`Area_at tc], is [Sensitivity.size_for_constraint
    path ~tc] for the unmodified path ([Ok] or [Error]), from a caller
    that has already searched it: the greedy takes it as its incumbent
    instead of searching again.  Given that answer, the result is the
    one without [base], bit for bit, less the search's solves and
    diagnostics.  Ignored under [`Tmin]. *)

val trials_evaluated : unit -> int
(** Total trials {!insert_global} has weighed in this process (shield
    batches, per-node shields and series pairs), screened or not;
    monotone, like {!Sensitivity.solves_performed}. *)

val trials_screened : unit -> int
(** Of {!trials_evaluated}, those the duality screen rejected without a
    constraint search; monotone. *)
