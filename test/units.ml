(* Unit conventions and formatting (only these tests use them).

    Internal units throughout the code base:
    - time: picoseconds (ps)
    - capacitance: femtofarads (fF)
    - voltage: volts (V)
    - current: microamps (uA)  — so that uA / fF = V / ps holds exactly
    - transistor width / area: micrometers (um) of gate width

    These are the natural magnitudes of a 0.25 um process, keeping all
    numbers near 1 and the ODE integration well conditioned. *)

let ps_of_ns x = x *. 1000.
let ns_of_ps x = x /. 1000.
let ff_of_pf x = x *. 1000.
let pf_of_ff x = x /. 1000.

(* a time in ps with an adaptive unit (ps or ns) *)
let pp_time ppf t =
  if Float.abs t >= 1000. then Format.fprintf ppf "%.3f ns" (ns_of_ps t)
  else Format.fprintf ppf "%.1f ps" t

(* a capacitance in fF with an adaptive unit (fF or pF) *)
let pp_cap ppf c =
  if Float.abs c >= 1000. then Format.fprintf ppf "%.3f pF" (pf_of_ff c)
  else Format.fprintf ppf "%.2f fF" c

let pp_width ppf w = Format.fprintf ppf "%.2f um" w

(* a ratio as a signed percentage, e.g. 0.13 -> "+13.0%" *)
let pp_percent ppf r = Format.fprintf ppf "%+.1f%%" (r *. 100.)
