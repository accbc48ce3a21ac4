(** The closed-form gate delay model — eqs. (1)–(3) of the paper.

    For a gate instance of input capacitance [cin] driving a load [cload]:

    - transition time (eqs. 2–3):
      [tau_out = S_edge * tau * cload / cin]
      where [S_edge] is the cell's symmetry factor for the output edge
      (falling: N stack; rising: P stack — see {!Pops_cell.Cell});
    - delay (eq. 1):
      [t = v_T * tau_in / 2  +  (1 + 2*C_M / (C_M + cload)) * tau_out / 2]
      where [v_T] is the reduced threshold of the switching transistor
      ([vtn/vdd] for a falling output, [vtp/vdd] for a rising one),
      [tau_in] the input transition time and [C_M] the input-to-output
      coupling capacitance.

    The [opts] record turns the slope term and the coupling term on and
    off; the benchmark harness ablates both (DESIGN.md, "ablations"). *)

type opts = {
  with_slope : bool;  (** include the [v_T * tau_in / 2] term *)
  with_coupling : bool;  (** include the Meyer coupling factor *)
}

val default_opts : opts
(** Both terms enabled — the paper's full model. *)

val transition_time : Pops_cell.Cell.t -> edge:Edge.t -> cin:float -> cload:float -> float
(** Output transition time (ps), eqs. (2)–(3). *)

val stage_delay :
  ?opts:opts ->
  Pops_cell.Cell.t ->
  edge_out:Edge.t ->
  tau_in:float ->
  cin:float ->
  cload:float ->
  float * float
(** [stage_delay cell ~edge_out ~tau_in ~cin ~cload] is
    [(delay, tau_out)] in ps: eq. (1) and the output transition feeding
    the next stage. *)

val coupling_cap : Pops_cell.Cell.t -> edge_out:Edge.t -> cin:float -> float
(** The [C_M] used by {!stage_delay} (fF). *)

val fo4_delay : Pops_process.Tech.t -> float
(** Delay of a minimum inverter driving four identical inverters (both
    edges averaged), the conventional process speed metric; used to
    calibrate [tau] against the transient simulator. *)
