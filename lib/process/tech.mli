(** Technology (process) parameters.

    The paper works in a 0.25 um industrial CMOS process.  That process is
    proprietary; {!cmos025} is a self-consistent parameter set with the
    textbook values of a 250 nm node.  Everything the delay model and the
    optimizer consume is in this record, so swapping a process swaps the
    whole stack's behaviour coherently.

    Units follow {!Pops_util.Units}: ps, fF, V, uA, um. *)

type t = {
  name : string;
  vdd : float;  (** supply voltage, V *)
  vtn : float;  (** NMOS threshold, V (positive) *)
  vtp : float;  (** PMOS threshold magnitude, V (positive) *)
  tau : float;
      (** process time unit of eq. (2), ps: the metric transition time of a
          minimum inverter loaded by one identical input capacitance. *)
  r_ratio : float;
      (** N-over-P current ratio [R] at equal width (eq. 3); ~2–3. *)
  k_ratio : float;
      (** default P/N configuration width ratio [k] used by library cells. *)
  cg_per_um : float;
      (** gate capacitance per um of transistor width, fF/um. *)
  cj_per_um : float;
      (** drain junction (parasitic output) capacitance per um, fF/um. *)
  cmin : float;
      (** minimum available gate input capacitance [C_REF], fF: the input
          capacitance of the minimum-drive inverter. *)
  wmin : float;  (** minimum NMOS width, um. *)
  alpha : float;
      (** alpha-power-law velocity-saturation index (Sakurai-Newton); ~1.3
          at 250 nm. *)
  kn : float;
      (** NMOS saturation transconductance, uA/um at (VDD - VTN)^alpha. *)
  coupling_ratio : float;
      (** C_M as a fraction of the switching transistor gate capacitance
          (paper: "one half the input capacitance of the P(N) transistor"
          for rising (falling) input — this is that 0.5 factor). *)
  i_leak_per_um : float;
      (** subthreshold leakage per um of transistor width at the nominal
          threshold, nA/um (a 0.25 um-class value; leakage was small but
          not zero at this node). *)
  subthreshold_slope : float;
      (** subthreshold swing, mV/decade — converts threshold shifts
          into leakage factors: [10^(dVt / slope)]. *)
}

val cmos025 : t
(** The default process: 250 nm, VDD 2.5 V. *)

val cmos018 : t
(** A 180 nm set used only for scaling sanity checks. *)

type corner = TT | SS | FF | SF | FS
(** Process corners: typical, slow/slow, fast/fast, and the skewed
    slow-N/fast-P and fast-N/slow-P corners that unbalance rise and
    fall. *)

val corner_name : corner -> string

val at_corner : t -> corner -> t
(** Derated parameter set: SS slows both devices ~15% (tau up, thresholds
    up), FF the reverse; SF and FS move the N/P current ratio [R] by
    ±25% and rename the process accordingly.  The skewed corners change
    which polarity is critical — the case the beta-weighted optimizer
    exists for. *)

val vt_shift : Vt.t -> float
(** Threshold increase of a Vt class over the process nominal, V:
    [0.0] for {!Vt.Lvt}, [0.05] for {!Vt.Svt}, [0.10] for {!Vt.Hvt}. *)

val vt_tau_factor : t -> Vt.t -> float
(** Delay derating of a Vt class: the alpha-power drive-current loss
    [((VDD - VT) / (VDD - VT - dVt))^alpha] at the mean N/P threshold.
    Exactly [1.0] at {!Vt.Lvt}. *)

val vt_leak_factor : t -> Vt.t -> float
(** Subthreshold-leakage multiplier of a Vt class relative to the
    nominal (LVT) device: [10^(-dVt / slope)] — exponential in the
    threshold shift, so SVT/HVT cut leakage by roughly 4x/15x at a
    typical 85 mV/decade swing.  Exactly [1.0] at {!Vt.Lvt}. *)

val vtn_reduced_vt : t -> Vt.t -> float
(** [(vtn + vt_shift vt) / vdd] — the reduced NMOS threshold of a cell
    in the given Vt class.  Bit-identical to {!vtn_reduced} at
    {!Vt.Lvt}. *)

val vtp_reduced_vt : t -> Vt.t -> float
(** PMOS counterpart of {!vtn_reduced_vt}. *)

val kp : t -> float
(** PMOS transconductance derived from {!t.kn} and {!t.r_ratio}. *)
