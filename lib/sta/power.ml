module Netlist = Pops_netlist.Netlist
module Csr = Netlist.Csr
module Logic = Pops_netlist.Logic

type report = {
  dynamic_uw : float;
  leakage_uw : float;
  switched_cap : float;
  area : float;
}

(* one node's switching power: fF * V^2 * MHz = nW -> uW *)
let[@inline] node_uw ~vdd ~freq_mhz p1 cap =
  let activity = 2. *. p1 *. (1. -. p1) in
  activity *. cap *. vdd *. vdd *. freq_mhz /. 1000.

let analyze ?(freq_mhz = 100.) ?input_prob ~lib t =
  let tech = Netlist.tech t in
  let vdd = tech.Pops_process.Tech.vdd in
  let probs = Logic.signal_probabilities t ?input_prob () in
  let c = Netlist.csr t in
  let code = Csr.kind_code c and pos = Csr.pos c in
  let load = Csr.load c and cin = Csr.cin c in
  (* inputs first, then gate ids ascending; a gate also switches its own
     parasitic [par_ratio * cin] ({!Pops_cell.Cell.cpar}) *)
  let inputs uw id = uw +. node_uw ~vdd ~freq_mhz probs.(id) load.(id) in
  let dynamic_uw = ref (List.fold_left inputs 0. (Netlist.inputs t)) in
  for id = 0 to Csr.bound c - 1 do
    if pos.(id) >= 0 && code.(id) <> -1 then begin
      let kind =
        if code.(id) >= 0 then Csr.code_kinds.(code.(id)) else Netlist.gate_kind t id
      in
      let par = (Pops_cell.Library.find lib kind).Pops_cell.Cell.par_ratio in
      let cap = load.(id) +. (par *. cin.(id)) in
      dynamic_uw := !dynamic_uw +. node_uw ~vdd ~freq_mhz probs.(id) cap
    end
  done;
  let dynamic_uw = !dynamic_uw in
  let switched_cap = dynamic_uw *. 1000. /. (vdd *. vdd *. freq_mhz) in
  let area = Netlist.total_area t lib in
  (* leakage-weighted width: each gate's Sigma W scaled by its Vt class's
     subthreshold factor; equals [area] bitwise on an all-LVT netlist *)
  let leak_area = Netlist.total_leakage_area t lib in
  let leakage_uw =
    tech.Pops_process.Tech.i_leak_per_um *. leak_area *. vdd /. 1000.
  in
  { dynamic_uw; leakage_uw; switched_cap; area }
