(* A realistic overloaded node: a datapath gate that, besides its
   downstream logic, must drive a heavily loaded control net fanning out
   to 40 registers (a "bus driver" situation, the paper's Fig. 5).

   The example walks the exact decision sequence of Section 4:
     1. characterise the node: fan-out vs its kind's Flimit;
     2. compare the alternatives at minimum delay: pure sizing, a series
        buffer, a branch shield (load dilution);
     3. run the protocol at a hard constraint and see what it picks.

     dune exec examples/bus_driver.exe *)

module Gk = Pops_cell.Gate_kind
module Library = Pops_cell.Library
module Path = Pops_delay.Path
module Bounds = Pops_core.Bounds
module Buffers = Pops_core.Buffers
module Protocol = Pops_core.Protocol
module Domains = Pops_core.Domains

let tech = Pops_process.Tech.cmos025
let lib = Library.make tech

let () =
  (* 40 register inputs at ~2 cmin each: a 220 fF control net *)
  let control_net = 40. *. 2. *. tech.Pops_process.Tech.cmin in
  let nor3 = Library.find lib (Gk.Nor 3) in
  let path =
    Path.of_kinds ~lib ~c_out:60.
      [ Gk.Inv; Gk.Nand 2; Gk.Inv; Gk.Nor 3; Gk.Inv; Gk.Nand 2; Gk.Inv ]
    |> fun p -> Path.with_stage_replaced p ~at:3 { Path.cell = nor3; branch = control_net }
  in
  Printf.printf "the NOR3 at stage 3 drives a %.0f fF control net off-path\n\n" control_net;

  (* 1. characterisation *)
  let fanouts = Buffers.path_fanouts path (Path.min_sizing path) in
  let limit = Buffers.flimit ~lib ~driver:Gk.Inv ~gate:(Gk.Nor 3) () in
  Printf.printf "stage 3 fan-out at minimum drive: F = %.1f, Flimit(nor3) = %.1f -> %s\n"
    fanouts.(3) limit
    (if fanouts.(3) > limit then "critical node" else "fine");
  let nodes = Buffers.critical_nodes ~lib path in
  Printf.printf "critical nodes: [%s]\n\n" (String.concat "; " (List.map string_of_int nodes));

  (* 2. the alternatives at minimum delay *)
  let b = Bounds.compute path in
  Printf.printf "pure sizing:        Tmin = %.1f ps, area %.1f um\n" b.Bounds.tmin
    (Path.area path b.Bounds.sizing_tmin);
  let r = Buffers.insert_global ~objective:`Tmin ~lib path in
  Printf.printf "with buffers:       Tmin = %.1f ps, area %.1f um (%d series pairs, %d shields)\n"
    r.Buffers.delay r.Buffers.area
    (List.length r.Buffers.inserted_after)
    (List.length r.Buffers.shields);
  List.iter
    (fun s ->
      Printf.printf
        "  shield at stage %d: the net is now driven by a %.1f fF -> %.1f fF\n\
        \  inverter pair; the NOR3 sees %.1f fF instead of %.0f fF\n"
        s.Buffers.stage s.Buffers.b1 s.Buffers.b2 s.Buffers.b1 control_net)
    r.Buffers.shields;

  (* 3. the protocol under a hard constraint *)
  let tc = 1.05 *. b.Bounds.tmin in
  let report = Protocol.run ~lib ~tc path in
  Printf.printf "\nprotocol at Tc = %.1f ps (%s domain): chose %s\n" tc
    (Domains.to_string report.Protocol.domain)
    (Protocol.strategy_to_string report.Protocol.strategy);
  Printf.printf "result: delay %.1f ps, area %.1f um, met = %b\n" report.Protocol.delay
    report.Protocol.area report.Protocol.met
