(** Domain generators: technologies, bounded paths, random DAG netlists,
    edit sequences and spine circuits.

    Everything is deterministic in the harness seed.  Structures that are
    too entangled to shrink directly (netlists) are represented by small
    {e spec} records — the spec is what gets generated, shrunk and
    printed, and a pure builder expands it into the real structure, so a
    minimal counterexample is always a one-line spec. *)

module Tech = Pops_process.Tech

val technologies : Tech.t array
(** Both process nodes at all five corners, [cmos025] TT first (so
    {!tech} shrinks towards the default process). *)

val tech : Tech.t Gen.t

val library : Tech.t -> Pops_cell.Library.t
(** Characterised library for a technology, cached by process name
    (characterisation is cheap but properties draw thousands of cases). *)

(** {1 Bounded paths} *)

type path_spec = {
  p_tech : Tech.t;
  kinds : Pops_cell.Gate_kind.t list;  (** >= 1 stage *)
  mults : float list;  (** per-stage drive, multiples of [cmin]; same length *)
  c_out : float;  (** terminal load, fF *)
  branch : float;  (** fixed off-path load per stage, fF *)
  input_slope : float;  (** ps *)
  input_edge : Pops_delay.Edge.t;
  opts : Pops_delay.Model.opts;
}

val path_spec :
  ?kinds:Pops_cell.Gate_kind.t array ->
  ?min_stages:int ->
  ?max_stages:int ->
  unit ->
  path_spec Gen.t
(** Stage count between [min_stages] (default 1) and [max_stages]
    (default 8), ramped by the runner size.  [kinds] defaults to the full
    static-CMOS taxonomy; pass a restricted array (e.g. chain gates for
    the SPICE oracle).  Shrinks by dropping stages, then simplifying
    kinds to [Inv], drives to 1x, the technology to the base process and
    the loads/slope towards their minima. *)

val to_path : path_spec -> Pops_delay.Path.t
val sizing : path_spec -> float array
(** The spec's drive multiples as a sizing vector (fF). *)

(** {1 Random DAG netlists} *)

type dag_spec = {
  d_seed : int64;  (** stream for the deterministic builder *)
  n_inputs : int;
  n_gates : int;
}

val dag_spec : dag_spec Gen.t
(** Shrinks the gate then the input count (the seed is kept, so the
    shrunk circuit is a prefix-like variant of the failing one). *)

val build_dag : ?tech:Tech.t -> dag_spec -> Pops_netlist.Netlist.t
(** Pure function of the spec: fan-ins are drawn from already-created
    nodes (acyclic by construction, biased towards recent nodes for
    depth), sizes are log-uniform in [\[cmin, 16 cmin\]], occasional wire
    load, and every sink becomes a primary output.  The result satisfies
    {!Pops_netlist.Netlist.validate}. *)

(** {1 Edit sequences} (random incremental-STA workloads) *)

type edit =
  | Resize of int * float  (** gate index (wraps), drive multiple *)
  | Set_wire of int * float  (** gate index, wire fF *)
  | Set_load of int * float  (** output index, terminal load fF *)
  | Insert_buffer of int  (** gate index *)
  | De_morgan of int  (** gate index *)
  | Set_vt of int * Pops_process.Vt.t  (** gate index, threshold class *)

val print_edit : edit -> string
val edit : edit Gen.t

val apply_edit : Pops_netlist.Netlist.t -> edit -> unit
(** Total: indices wrap modulo the live gate/output count and
    inapplicable edits (e.g. De Morgan on an inverter) are no-ops, so any
    generated sequence is a valid workload. *)

(** {1 Spine circuits} (via [Netlist.Generator]) *)

type spine_spec = {
  sp_tag : int;  (** profile-name disambiguator *)
  sp_path_gates : int;
  sp_total_gates : int;
  sp_out_load : float;
}

val spine_spec : spine_spec Gen.t
val build_spine : Tech.t -> spine_spec -> Pops_netlist.Netlist.t * int list
(** The circuit and its spine gate ids, input side first. *)

(** {1 SPICE oracle domain} *)

val spice_chain : path_spec Gen.t
(** 2-6 stage chains of the calibrated oracle gates (inverter, NAND2,
    NOR2). *)

val sanitize_spice : path_spec -> path_spec
(** Clamp a spec (including shrunk variants) into the envelope the
    differential-oracle tolerance bands were measured on: default model
    options, moderate loads, slopes and drives. *)

val to_vt_path : path_spec -> Pops_process.Vt.t -> Pops_delay.Path.t
(** The spec's path rebuilt in one Vt class: every stage uses the
    class's cell variant ({!Pops_cell.Library.find_vt}), so the delay
    model sees the class's derated thresholds and [tau_factor], while
    the path's technology record carries [vtn]/[vtp] shifted by
    {!Tech.vt_shift} — which is what the transistor-level simulator
    reads — so the differential oracle compares the same physical
    threshold shift on both sides.  [to_vt_path s Lvt] is equivalent to
    {!to_path} (all factors are exactly 1, the shift exactly 0). *)
