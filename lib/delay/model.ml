type opts = { with_slope : bool; with_coupling : bool }

let default_opts = { with_slope = true; with_coupling = true }

let transition_time (cell : Pops_cell.Cell.t) ~edge ~cin ~cload =
  assert (cin > 0. && cload >= 0.);
  let s = match edge with Edge.Falling -> cell.s_hl | Edge.Rising -> cell.s_lh in
  s *. cell.tech.tau *. cell.tau_factor *. cload /. cin

let coupling_cap (cell : Pops_cell.Cell.t) ~edge_out ~cin =
  let r =
    match edge_out with
    | Edge.Falling -> cell.cm_ratio_hl
    | Edge.Rising -> cell.cm_ratio_lh
  in
  r *. cin

let stage_delay ?(opts = default_opts) (cell : Pops_cell.Cell.t) ~edge_out ~tau_in
    ~cin ~cload =
  let tau_out = transition_time cell ~edge:edge_out ~cin ~cload in
  let v_t =
    match edge_out with Edge.Falling -> cell.vtn_red | Edge.Rising -> cell.vtp_red
  in
  let slope_term = if opts.with_slope then v_t *. tau_in /. 2. else 0. in
  let coupling_factor =
    if opts.with_coupling then
      let cm = coupling_cap cell ~edge_out ~cin in
      1. +. (2. *. cm /. (cm +. cload))
    else 1.
  in
  let delay = slope_term +. (coupling_factor *. tau_out /. 2.) in
  (delay, tau_out)

let fo4_delay tech =
  let inv = Pops_cell.Cell.make tech Pops_cell.Gate_kind.Inv in
  let cin = tech.Pops_process.Tech.cmin in
  let cload = (4. *. cin) +. Pops_cell.Cell.cpar inv ~cin in
  (* self-timed input: input slope equal to the stage's own output slope *)
  let tau_fall = transition_time inv ~edge:Edge.Falling ~cin ~cload in
  let tau_rise = transition_time inv ~edge:Edge.Rising ~cin ~cload in
  let d_fall, _ = stage_delay inv ~edge_out:Edge.Falling ~tau_in:tau_rise ~cin ~cload in
  let d_rise, _ = stage_delay inv ~edge_out:Edge.Rising ~tau_in:tau_fall ~cin ~cload in
  0.5 *. (d_fall +. d_rise)
