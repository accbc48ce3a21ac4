(** Netlist-level switching power.

    Combines the activity propagation of {!Pops_netlist.Logic} with the
    capacitance model: each node contributes
    [activity * (C_fanout + C_par + C_wire + C_load) * Vdd^2 * f], read
    from the netlist's {!Pops_netlist.Netlist.csr} snapshot. *)

type report = {
  dynamic_uw : float;  (** total dynamic power, uW *)
  leakage_uw : float;  (** subthreshold leakage over all gates, uW *)
  switched_cap : float;  (** activity-weighted capacitance, fF *)
  area : float;  (** [Sigma W] over all gates, um *)
}

val analyze :
  ?freq_mhz:float -> ?input_prob:float ->
  lib:Pops_cell.Library.t -> Pops_netlist.Netlist.t -> report
(** Default clock 100 MHz, input one-probability 0.5. *)
