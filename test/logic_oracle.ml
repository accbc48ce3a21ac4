(* Reference oracles for Pops_netlist.Logic: the record-based walkers
   the CSR sweep replaced.  Each walks Netlist.topological_order with a
   Hashtbl of node values and evaluates gates with Gate_kind.eval, so it
   shares no code with the evaluator under test. *)

module Gk = Pops_cell.Gate_kind
module Netlist = Pops_netlist.Netlist

(* every live node's value under one input vector (ordered as
   Netlist.inputs) *)
let values t inputs =
  let input_ids = Netlist.inputs t in
  if Array.length inputs <> List.length input_ids then
    invalid_arg "Logic_oracle.values: input vector length mismatch";
  let values = Hashtbl.create 64 in
  List.iteri (fun i id -> Hashtbl.replace values id inputs.(i)) input_ids;
  List.iter
    (fun id ->
      let n = Netlist.node t id in
      match n.Netlist.kind with
      | Netlist.Primary_input -> ()
      | Netlist.Cell kind ->
        let args = Array.map (Hashtbl.find values) n.Netlist.fanins in
        Hashtbl.replace values id (Gk.eval kind args))
    (Netlist.topological_order t);
  values

let eval_node t inputs id = Hashtbl.find (values t inputs) id

(* primary outputs in designation order, like Logic.eval *)
let eval t inputs =
  let values = values t inputs in
  List.map (fun (id, _) -> (id, Hashtbl.find values id)) (Netlist.outputs t)

(* every live node's one-probability by forward propagation under the
   independence approximation: input patterns ascending, weights
   multiplied in pin order *)
let signal_probabilities ?(input_prob = 0.5) t =
  let probs = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace probs id input_prob) (Netlist.inputs t);
  List.iter
    (fun id ->
      let n = Netlist.node t id in
      match n.Netlist.kind with
      | Netlist.Primary_input -> ()
      | Netlist.Cell kind ->
        let arity = Gk.arity kind in
        let fanin_p = Array.map (Hashtbl.find probs) n.Netlist.fanins in
        let p = ref 0. in
        for pat = 0 to (1 lsl arity) - 1 do
          let args = Array.init arity (fun i -> pat land (1 lsl i) <> 0) in
          if Gk.eval kind args then begin
            let weight = ref 1. in
            Array.iteri
              (fun i b ->
                weight := !weight *. (if b then fanin_p.(i) else 1. -. fanin_p.(i)))
              args;
            p := !p +. !weight
          end
        done;
        Hashtbl.replace probs id !p)
    (Netlist.topological_order t);
  probs
