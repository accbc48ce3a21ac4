type t = {
  kind : Gate_kind.t;
  tech : Pops_process.Tech.t;
  k : float;
  dw_hl : float;
  dw_lh : float;
  s_hl : float;
  s_lh : float;
  par_ratio : float;
  cm_ratio_hl : float;
  cm_ratio_lh : float;
  vt : Pops_process.Vt.t;
  tau_factor : float;
  leak_factor : float;
  vtn_red : float;
  vtp_red : float;
  area_coeff : float;
}

(* NMOS at 0.25 um is strongly velocity saturated: stacking costs less
   than linearly.  Holes are much less saturated, so PMOS stacks pay the
   full (slightly super-) linear price — this is why measured NOR efforts
   exceed the symmetric first-order theory, and why the paper's Table 2
   ranks nor2 below nand3. *)
let stack_factor_n = 0.70
let stack_factor_p = 1.35

let weight_of_stack factor n = 1. +. (factor *. float_of_int (n - 1))

(* XOR-class cells carry the pass/extra transistors of their CMOS
   realisation: more area and junction per fF of input. *)
let area_factor = function
  | Gate_kind.Xor2 | Gate_kind.Xnor2 -> 1.5
  | Gate_kind.Inv | Gate_kind.Buf | Gate_kind.Nand _ | Gate_kind.Nor _
  | Gate_kind.Aoi21 | Gate_kind.Oai21 | Gate_kind.Aoi22 | Gate_kind.Oai22 -> 1.0

let make ?k ?(vt = Pops_process.Vt.Lvt) (tech : Pops_process.Tech.t) kind =
  let k = Option.value k ~default:tech.k_ratio in
  let k_nom = tech.k_ratio in
  let dw_hl = weight_of_stack stack_factor_n (Gate_kind.series_n kind) in
  let dw_lh = weight_of_stack stack_factor_p (Gate_kind.series_p kind) in
  (* Eq. (3), normalised so a nominal inverter has S_HL = 1: the falling
     edge is driven by the N stack (width cin/(cg(1+k))), the rising edge by
     the P stack, penalised by the current ratio R and helped by k. *)
  let s_hl = dw_hl *. (1. +. k) /. (1. +. k_nom) in
  let s_lh = dw_lh *. tech.r_ratio *. (1. +. k) /. (k *. (1. +. k_nom)) in
  let stack = max (Gate_kind.series_n kind) (Gate_kind.series_p kind) in
  let par_ratio =
    tech.cj_per_um /. tech.cg_per_um
    *. (1. +. (0.35 *. float_of_int (stack - 1)))
    *. area_factor kind
  in
  let cm_ratio_hl = tech.coupling_ratio *. (k /. (1. +. k)) in
  let cm_ratio_lh = tech.coupling_ratio *. (1. /. (1. +. k)) in
  {
    kind;
    tech;
    k;
    dw_hl;
    dw_lh;
    s_hl;
    s_lh;
    par_ratio;
    cm_ratio_hl;
    cm_ratio_lh;
    vt;
    tau_factor = Pops_process.Tech.vt_tau_factor tech vt;
    leak_factor = Pops_process.Tech.vt_leak_factor tech vt;
    vtn_red = Pops_process.Tech.vtn_reduced_vt tech vt;
    vtp_red = Pops_process.Tech.vtp_reduced_vt tech vt;
    area_coeff = float_of_int (Gate_kind.arity kind) *. area_factor kind;
  }

let min_cin t = t.tech.cmin

let cpar t ~cin = t.par_ratio *. cin

let area t ~cin = t.area_coeff *. cin /. t.tech.cg_per_um

let pp ppf t =
  Format.fprintf ppf
    "%a: k=%.2f DW(hl/lh)=%.2f/%.2f S(hl/lh)=%.2f/%.2f par=%.2f"
    Gate_kind.pp t.kind t.k t.dw_hl t.dw_lh t.s_hl t.s_lh t.par_ratio
