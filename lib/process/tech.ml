type t = {
  name : string;
  vdd : float;
  vtn : float;
  vtp : float;
  tau : float;
  r_ratio : float;
  k_ratio : float;
  cg_per_um : float;
  cj_per_um : float;
  cmin : float;
  wmin : float;
  alpha : float;
  kn : float;
  coupling_ratio : float;
  i_leak_per_um : float;
  subthreshold_slope : float;
}

(* Textbook 250 nm values: Cox ~ 6 fF/um^2, Lgate 0.25 um -> ~1.5 fF/um of
   gate width plus overlap; junction ~ half of gate; a minimum inverter is
   Wn = 0.5 um, Wp = k * Wn = 1.0 um -> cmin ~ 2.8 fF.  tau is calibrated so
   that the analytic FO4 inverter delay lands near the canonical ~90 ps of a
   250 nm process (the transient simulator cross-checks this in tests). *)
let cmos025 =
  {
    name = "cmos025";
    vdd = 2.5;
    vtn = 0.50;
    vtp = 0.55;
    tau = 29.0;
    r_ratio = 2.4;
    k_ratio = 2.0;
    cg_per_um = 1.85;
    cj_per_um = 1.0;
    cmin = 2.8;
    wmin = 0.5;
    alpha = 1.3;
    kn = 230.;
    coupling_ratio = 0.5;
    i_leak_per_um = 0.15;
    subthreshold_slope = 85.;
  }

let cmos018 =
  {
    name = "cmos018";
    vdd = 1.8;
    vtn = 0.42;
    vtp = 0.45;
    tau = 22.7;
    r_ratio = 2.2;
    k_ratio = 1.9;
    cg_per_um = 1.6;
    cj_per_um = 0.85;
    cmin = 1.7;
    wmin = 0.35;
    alpha = 1.25;
    kn = 300.;
    coupling_ratio = 0.5;
    i_leak_per_um = 1.2;
    subthreshold_slope = 90.;
  }

type corner = TT | SS | FF | SF | FS

let corner_name = function
  | TT -> "tt"
  | SS -> "ss"
  | FF -> "ff"
  | SF -> "sf"
  | FS -> "fs"

let at_corner t corner =
  let slow = 1.15 and fast = 0.87 and vt_shift = 0.04 in
  (* threshold shifts move subthreshold leakage exponentially *)
  let leak_factor dvt = 10. ** (-1000. *. dvt /. t.subthreshold_slope) in
  let named c = { t with name = t.name ^ "-" ^ corner_name c } in
  match corner with
  | TT -> t
  | SS ->
    { (named SS) with
      tau = t.tau *. slow;
      kn = t.kn *. fast;
      vtn = t.vtn +. vt_shift;
      vtp = t.vtp +. vt_shift;
      i_leak_per_um = t.i_leak_per_um *. leak_factor vt_shift }
  | FF ->
    { (named FF) with
      tau = t.tau *. fast;
      kn = t.kn *. slow;
      vtn = t.vtn -. vt_shift;
      vtp = t.vtp -. vt_shift;
      i_leak_per_um = t.i_leak_per_um *. leak_factor (-.vt_shift) }
  | SF ->
    (* slow N, fast P: pull-down weakens relative to pull-up *)
    { (named SF) with r_ratio = t.r_ratio *. 0.75; vtn = t.vtn +. vt_shift;
      vtp = t.vtp -. vt_shift }
  | FS ->
    { (named FS) with r_ratio = t.r_ratio *. 1.25; vtn = t.vtn -. vt_shift;
      vtp = t.vtp +. vt_shift }

(* Vt-class derivations.  All four functions are the identity at [Lvt]
   (shift 0.0, factors exactly 1.0), which keeps an all-LVT netlist
   bit-identical to the pre-multi-Vt model. *)

let vt_shift = function Vt.Lvt -> 0. | Vt.Svt -> 0.05 | Vt.Hvt -> 0.10

let vt_tau_factor t vt =
  match vt with
  | Vt.Lvt -> 1.0
  | _ ->
    (* alpha-power drive loss: Id ~ (VDD - VT)^alpha, so a threshold
       raised by dvt slows the stage by ((VDD-VT)/(VDD-VT-dvt))^alpha,
       evaluated at the mean of the N and P thresholds *)
    let vt_mean = (t.vtn +. t.vtp) *. 0.5 in
    let dvt = vt_shift vt in
    ((t.vdd -. vt_mean) /. (t.vdd -. vt_mean -. dvt)) ** t.alpha

let vt_leak_factor t vt =
  match vt with
  | Vt.Lvt -> 1.0
  | _ -> 10. ** (-1000. *. vt_shift vt /. t.subthreshold_slope)

let vtn_reduced_vt t vt =
  match vt with Vt.Lvt -> t.vtn /. t.vdd | _ -> (t.vtn +. vt_shift vt) /. t.vdd

let vtp_reduced_vt t vt =
  match vt with Vt.Lvt -> t.vtp /. t.vdd | _ -> (t.vtp +. vt_shift vt) /. t.vdd

let kp t = t.kn /. t.r_ratio
