(** Electrical model of a library cell.

    A cell couples a {!Gate_kind.t} with the reduced electrical parameters
    the delay model (eqs. 1–3 of the paper) consumes:

    - logical weights [DW_HL] / [DW_LH]: ratio of the current available in
      an inverter to that of the cell's series transistor array (paper
      ref. [14]).  A stack of [n] transistors has weight
      [1 + f * (n - 1)], [f] the stack factor of its polarity — below
      [n] for NMOS because velocity saturation softens stacking;
    - symmetry factors [S_HL] / [S_LH] (eq. 3), built from the P/N
      configuration ratio [k], the N/P current ratio [R] and the weights;
    - the parasitic (drain-junction) output capacitance, proportional to
      the cell's own input capacitance;
    - the input-to-output coupling capacitance [C_M] per switching edge
      (half the gate capacitance of the P (resp. N) transistor for a
      rising (resp. falling) input edge).

    Cells are continuously sizable: an instance is a [cell] plus an input
    capacitance [cin] (fF per input), from which widths and area follow. *)

type t = private {
  kind : Gate_kind.t;
  tech : Pops_process.Tech.t;
  k : float;  (** P/N width ratio used by this cell *)
  dw_hl : float;
  dw_lh : float;
  s_hl : float;  (** symmetry factor, falling output edge *)
  s_lh : float;  (** symmetry factor, rising output edge *)
  par_ratio : float;  (** C_par = par_ratio * cin *)
  cm_ratio_hl : float;  (** C_M = cm_ratio_hl * cin for output-falling *)
  cm_ratio_lh : float;  (** C_M = cm_ratio_lh * cin for output-rising *)
  vt : Pops_process.Vt.t;  (** threshold class of this cell variant *)
  tau_factor : float;
      (** delay derating of the Vt class ({!Pops_process.Tech.vt_tau_factor});
          exactly [1.0] for LVT *)
  leak_factor : float;
      (** leakage multiplier of the Vt class
          ({!Pops_process.Tech.vt_leak_factor}); exactly [1.0] for LVT *)
  vtn_red : float;  (** reduced NMOS threshold [(vtn + shift) / vdd] *)
  vtp_red : float;  (** reduced PMOS threshold [(vtp + shift) / vdd] *)
  area_coeff : float;
      (** arity times the kind's area factor: {!area} is
          [area_coeff *. cin /. tech.cg_per_um] *)
}

val stack_factor_n : float
(** Per-stage weight increment of NMOS series stacks (< 1: velocity
    saturation softens N stacking at 0.25 um). *)

val stack_factor_p : float
(** Per-stage weight increment of PMOS series stacks (~1: holes are barely
    velocity saturated, so P stacks pay the full price — this is what
    makes NOR gates the inefficient ones, cf. the paper's Table 2). *)

val make : ?k:float -> ?vt:Pops_process.Vt.t -> Pops_process.Tech.t -> Gate_kind.t -> t
(** [make tech kind] builds the cell model; [k] defaults to the process
    configuration ratio [tech.k_ratio], [vt] to {!Pops_process.Vt.Lvt}
    (the fastest, leakiest class — the pre-multi-Vt behaviour). *)

val min_cin : t -> float
(** Smallest available drive (fF per input): the process [cmin] — every
    cell's minimum instance presents one reference load per input. *)

val cpar : t -> cin:float -> float
(** Parasitic output capacitance of an instance (fF). *)

val area : t -> cin:float -> float
(** Total transistor width of an instance, um — the paper's area (and
    power) metric [Sigma W]. *)
