(* Reference oracles for Pops_netlist.Logic: the record-based walkers
   the CSR sweep replaced.  Each walks Netlist.topological_order with a
   Hashtbl of node values and evaluates gates with Gate_kind.eval, so it
   shares no code with the evaluator under test.  The exception is
   [equivalent_chunked], which checks the one-pass equivalence against
   the one-word sweep of [Logic.eval_packed] (itself checked against
   [eval] here). *)

module Gk = Pops_cell.Gate_kind
module Netlist = Pops_netlist.Netlist
module Logic = Pops_netlist.Logic

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

(* lane [j] is bit [i] of assignment [base + j]; lanes from [total] on
   are zero *)
let assignment_word ~total base i =
  let w = ref Int64.zero in
  for j = 0 to min 63 (total - base - 1) do
    if (base + j) land (1 lsl i) <> 0 then w := Int64.logor !w (Int64.shift_left 1L j)
  done;
  !w

let lane w j = Int64.logand (Int64.shift_right_logical w j) 1L = 1L
let rec lowest_lane w j = if lane w j then j else lowest_lane w (j + 1)

(* The chunked equivalence check the one-pass Logic.equivalent replaced:
   one Logic.eval_packed per netlist per chunk of 64 vectors, the same
   vectors in the same order (every assignment up to 12 inputs, else
   seeded random words drawn chunk by chunk), outputs paired in
   designation order, the first mismatch named by chunk, then lane. *)
let equivalent_chunked ?(vectors = 512) ?(seed = 0x5EEDL) a b =
  let n_in = Netlist.input_count a in
  let outs_a = Netlist.outputs a and outs_b = Netlist.outputs b in
  if n_in <> Netlist.input_count b then Error "input counts differ"
  else if List.compare_lengths outs_a outs_b <> 0 then Error "output counts differ"
  else begin
    let chunks, chunk =
      if n_in <= 12 then begin
        let total = 1 lsl n_in in
        ((total + 63) / 64, fun c -> Array.init n_in (assignment_word ~total (c * 64)))
      end
      else begin
        let rng = Pops_util.Rng.create seed in
        ((vectors + 63) / 64, fun _ -> Array.init n_in (fun _ -> Pops_util.Rng.int64 rng))
      end
    in
    let rec check c =
      if c >= chunks then Ok ()
      else begin
        let words = chunk c in
        let diff =
          List.fold_left2
            (fun acc (_, x) (_, y) -> Int64.logor acc (Int64.logxor x y))
            Int64.zero (Logic.eval_packed a words) (Logic.eval_packed b words)
        in
        if diff = Int64.zero then check (c + 1)
        else begin
          let j = lowest_lane diff 0 in
          Error
            (Printf.sprintf "mismatch on %s"
               (String.init n_in (fun i -> if lane words.(i) j then '1' else '0')))
        end
      end
    in
    check 0
  end
