(** Bounded combinational paths (Section 2.2 of the paper).

    A {e bounded} path has its input gate capacitance fixed by the load
    constraint on the latch that feeds it, and its terminal load fixed by
    the input capacitance of the latches/gates it drives.  Under those two
    boundary conditions the path delay is a convex function of the
    interior gate input capacitances (the sizing vector), which is what
    makes the deterministic optimization of Sections 3–4 possible.

    A sizing vector [x] has one entry per stage, in fF of input
    capacitance per stage input pin.  [x.(0)] is the input gate: it is
    {e fixed} at [drive_cin] and functions below overwrite it before
    evaluating, so optimizers may store anything there.

    Conventions:
    - stage [i] drives stage [i+1]; the last stage drives [c_out];
    - stage [i]'s load is [cpar(i) + branch(i) + x.(i+1)] where
      [branch(i)] is the fixed off-path load (side fan-out plus wire);
    - edges alternate according to each cell's inverting polarity,
      starting from [input_edge]. *)

type stage = {
  cell : Pops_cell.Cell.t;
  branch : float;  (** fixed off-path output load, fF (fanout + wire) *)
}

(** Compiled per-path coefficient tables (structure-of-arrays), built
    once at construction.  Each array has one entry per stage; the [own]
    tables follow the path's current input polarity and the [flip]
    tables the opposite one, so {!with_input_edge} is an array swap.
    [v] is pre-zeroed when the slope term is disabled and [m] when
    coupling is disabled, which keeps the closed-form kernels reading
    them branch-free while producing bit-identical values.  The solvers
    in [Pops_core] read these tables directly in their inner loops. *)
type kernel = private {
  n : int;  (** stage count *)
  s_own : float array;  (** symmetry factor, own polarity *)
  st_own : float array;  (** [s * tau] — the transition-time product *)
  v_own : float array;  (** reduced threshold (0 when slope term off) *)
  m_own : float array;  (** coupling ratio (0 when coupling off) *)
  s_flip : float array;
  st_flip : float array;
  v_flip : float array;
  m_flip : float array;
  p : float array;  (** parasitic slope: [cpar = p * cin] *)
  kbranch : float array;  (** fixed off-path load per stage *)
  lo : float array;  (** minimum drive per stage *)
  hi : float array;  (** [4096 *] minimum drive *)
  aw : float array;  (** area weight [dA/dCin] per stage *)
  flip_edges : Edge.t array;  (** stage edges under the flipped input *)
}

type t = private {
  tech : Pops_process.Tech.t;
  stages : stage array;
  drive_cin : float;  (** fixed input capacitance of stage 0, fF *)
  c_out : float;  (** fixed terminal load, fF *)
  input_slope : float;  (** transition time at the path input, ps *)
  input_edge : Edge.t;
  opts : Model.opts;
  edges : Edge.t array;  (** output edge of each stage, precomputed *)
  kernel : kernel;  (** compiled coefficient tables (see {!kernel}) *)
}

val make :
  ?opts:Model.opts ->
  ?input_slope:float ->
  ?input_edge:Edge.t ->
  ?drive_cin:float ->
  tech:Pops_process.Tech.t ->
  c_out:float ->
  stage list ->
  t
(** [make ~tech ~c_out stages] builds a bounded path.  [drive_cin]
    defaults to the process [cmin]; [input_slope] to 2x the process [tau];
    [input_edge] to [Rising].
    @raise Invalid_argument on an empty stage list. *)

val of_kinds :
  ?opts:Model.opts ->
  ?input_slope:float ->
  ?input_edge:Edge.t ->
  ?drive_cin:float ->
  ?branch:float ->
  lib:Pops_cell.Library.t ->
  c_out:float ->
  Pops_cell.Gate_kind.t list ->
  t
(** Convenience constructor: every stage gets the same fixed [branch] load
    (default 0.). *)

val length : t -> int
(** Number of stages. *)

val min_sizing : t -> float array
(** Every stage at its minimum drive — the paper's pseudo upper bound
    configuration (and the [C_REF] initial solution). *)

val clamp_sizing : t -> float array -> float array
(** Fresh vector with [x.(0) := drive_cin] and every interior entry
    clamped to [\[cmin, 4096 * cmin\]]. *)

val clamp_into : t -> float array -> float array -> unit
(** [clamp_into t x dst] writes the clamped sizing into the caller-owned
    [dst] (every entry of [dst] is overwritten; [dst == x] clamps in
    place).  Allocation-free: the in-place variant of
    {!clamp_sizing}. *)

val grid : round:(float -> float) -> float -> float
(** The write-back grid of 12 significant bits that the flow stores
    sizes on; [round] ([Float.round], [Float.ceil]) picks the point. *)

type scratch = private { mutable own : float; mutable flip : float }
(** Caller-owned result cell for {!delay_both}.  All-float mutable
    record, so writing results allocates nothing.  Not synchronised:
    under a parallel fan-out each domain (or each task closure) must own
    its own scratch. *)

val scratch : unit -> scratch

val delay : t -> float array -> float
(** Total path delay (ps) for sizing [x] (eq. 1 summed along the path),
    for the path's own [input_edge].  [x.(0)] is treated as [drive_cin]
    regardless of its value.  Allocation-free: sizes are clamped on the
    fly against the compiled bound tables. *)

val delay_both : t -> scratch -> float array -> unit
(** One fused pass computing the path delay under both input polarities
    (the loads are polarity-independent, so the second polarity costs
    only its closed-form terms).  [scratch.own] receives the delay for
    the path's own [input_edge], [scratch.flip] the flipped one.
    Allocation-free. *)

val with_input_edge : t -> Edge.t -> t
(** Same path, driven by the other polarity.  O(1): the compiled kernel
    holds both polarities' tables and the pre-flipped edge array, so the
    flip swaps arrays instead of re-deriving anything. *)

val delay_worst : t -> float array -> float
(** [max] of {!delay} over the two input polarities — the criterion real
    timing sign-off uses, and the one the optimizers report against.
    Computed by the fused both-polarity pass; allocation-free. *)

val delay_avg : t -> float array -> float
(** Mean of {!delay} over the two input polarities — the balanced
    objective the sizing optimizers minimise (optimising a single
    polarity under-sizes the other's weak gates; minimising the average
    is the standard practice and a convex proxy for the minimax). *)

val delay_per_stage : t -> float array -> (float * float) array
(** Per-stage [(delay, tau_out)] pairs, for reports and the simulator
    cross-check. *)

val gradient : t -> float array -> float array
(** Exact analytic gradient [dT/dx.(i)] of {!delay} (ps/fF).  Entry 0 is
    0 (the input gate is not a free variable).  Validated against a
    central-difference gradient by property tests. *)

val gradient_into : t -> float array -> float array -> unit
(** [gradient_into t x g] writes the gradient into the caller-owned [g]
    (length {!length}; every entry overwritten).  Allocation-free
    variant of {!gradient} for solver inner loops. *)

val gradient_hessian_into :
  ?diff:float array ->
  t ->
  w_own:float ->
  w_flip:float ->
  a:float ->
  float array ->
  float array ->
  float array ->
  float array ->
  unit
(** [gradient_hessian_into t ~w_own ~w_flip ~a x g hd ho] is one fused
    pass over both polarities for the sizing objective
    [L = w_own T_own + w_flip T_flip - a sum_j aw_j x_j] (a polarity of
    weight 0 is skipped): [g.(j)] receives [dL/dx_j] (bitwise the
    weighted sum of the two polarities' {!gradient_into}, less
    [a aw_j]), [hd.(j)] the exact [d2L/dx_j2] and [ho.(j)] the exact
    [d2L/dx_j dx_(j+1)] of the closed-form model ([dT/dx_j] reads only
    [x_(j-1)], [x_j] and [x_(j+1)], so the Hessian is tridiagonal).
    Entry 0 of each array and [ho.(n-1)] are 0.  Allocation-free.
    [diff], when given, also receives [dT_own/dx_j - dT_flip/dx_j]
    (both polarities evaluated whatever their weights): the
    derivative of the link equations in the weight, which the constraint
    sizer's tangents need. *)

val area : t -> float array -> float
(** Total transistor width, um (the paper's [Sigma W] metric). *)

val area_weight : t -> int -> float
(** [dArea/dC_IN] of a stage, um/fF — constant per stage (area is linear
    in the input capacitance).  The sizing optimizers express the
    sensitivity condition per unit of {e width}, so a 3-input cell
    (3x the width per fF) is held to a proportionally tighter
    capacitance sensitivity; this is the exact KKT condition for
    minimum [Sigma W] under a delay constraint. *)

val sum_cin_ratio : t -> float array -> float
(** [Sigma C_IN / C_REF] — the x-axis of the paper's Fig. 1. *)

val loads : t -> float array -> float array
(** Per-stage output load (fF) under sizing [x]. *)

val with_stage_inserted : t -> at:int -> stage -> t
(** Path with [stage] inserted {e after} position [at] (so it drives what
    stage [at] used to drive).  Used by buffer insertion. *)

val with_stage_replaced : t -> at:int -> stage -> t
(** Path with stage [at] replaced. Used by the De Morgan restructuring. *)

val stage_kinds : t -> Pops_cell.Gate_kind.t list
(** The gate kinds along the path, in order. *)

type coeffs = {
  s : float;  (** symmetry factor for the stage's output edge *)
  v : float;  (** reduced threshold of the switching transistor *)
  m : float;  (** coupling ratio: C_M = m * cin (0 when disabled) *)
  p : float;  (** parasitic ratio: C_par = p * cin *)
}

val stage_coeffs : t -> int -> coeffs
(** Reduced per-stage coefficients (the [A_i] of the paper's eq. 4).
    Boxed compatibility accessor: the solvers' inner loops read the
    compiled {!kernel} tables instead. *)

val pp : Format.formatter -> t -> unit
