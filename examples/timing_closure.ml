(* Timing closure on a whole benchmark circuit with the Path Selection
   loop — the flow a user of the original POPS tool would run.

   Materialise the c1908 benchmark, ask for a 25% speedup over the
   un-optimized netlist, and let the flow iterate: STA, pick the worst
   paths, run the protocol on each, apply the surgery, re-verify.

     dune exec examples/timing_closure.exe *)

module Library = Pops_cell.Library
module Netlist = Pops_netlist.Netlist
module Timing = Pops_sta.Timing
module NPower = Pops_sta.Power
module Profiles = Pops_circuits.Profiles
module Flow = Pops_flow.Flow
module Protocol = Pops_core.Protocol

let tech = Pops_process.Tech.cmos025
let lib = Library.make tech

let () =
  let profile = Option.get (Profiles.find "c1908") in
  let nl, _ = Profiles.circuit tech profile in
  Format.printf "%a@." Netlist.pp_stats nl;
  let d0 = Timing.critical_delay (Timing.analyze ~lib nl) in
  let p0 = NPower.analyze ~lib nl in
  Printf.printf "initial: %.1f ps, %.1f um, %.1f uW\n\n" d0 p0.NPower.area
    p0.NPower.dynamic_uw;

  let tc = 0.75 *. d0 in
  Printf.printf "target: %.1f ps (25%% faster)\n" tc;
  let r = Pops_robust.Outcome.get (Flow.optimize_o ~lib ~tc nl) in
  Format.printf "%a@.@." Flow.pp_report r;
  List.iter
    (fun it ->
      Printf.printf "  round %d: critical %.1f ps -> %s on a %d-gate path\n"
        it.Flow.round it.Flow.critical_delay
        (Protocol.strategy_to_string it.Flow.strategy)
        it.Flow.path_gates)
    r.Flow.iterations;

  let p1 = NPower.analyze ~lib nl in
  Printf.printf "\nfinal: %.1f ps, %.1f um, %.1f uW\n"
    (Timing.critical_delay (Timing.analyze ~lib nl))
    p1.NPower.area p1.NPower.dynamic_uw;
  Printf.printf "power cost of the speedup: %+.1f%%\n"
    (100. *. (p1.NPower.dynamic_uw -. p0.NPower.dynamic_uw) /. p0.NPower.dynamic_uw)
