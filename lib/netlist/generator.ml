module Gk = Pops_cell.Gate_kind
module Rng = Pops_util.Rng

type profile = {
  name : string;
  path_gates : int;
  total_gates : int;
  out_load : float;
  side_load : float;
}

let make_profile ?total_gates ?(out_load = 60.) ?(side_load = 8.) ~name ~path_gates () =
  if path_gates < 2 then invalid_arg "Generator.make_profile: path_gates < 2";
  let total_gates = Option.value total_gates ~default:(3 * path_gates) in
  if total_gates < path_gates then invalid_arg "Generator.make_profile: total < path";
  { name; path_gates; total_gates; out_load; side_load }

(* spine gates are inverting so polarities alternate cleanly; the mix
   reflects a typical mapped ISCAS'85 circuit *)
let spine_mix =
  [|
    (Gk.Inv, 0.28);
    (Gk.Nand 2, 0.30);
    (Gk.Nor 2, 0.16);
    (Gk.Nand 3, 0.10);
    (Gk.Nor 3, 0.07);
    (Gk.Aoi21, 0.05);
    (Gk.Oai21, 0.04);
  |]

let side_mix =
  [|
    (Gk.Inv, 0.20);
    (Gk.Nand 2, 0.28);
    (Gk.Nor 2, 0.18);
    (Gk.Nand 3, 0.08);
    (Gk.Nor 3, 0.06);
    (Gk.Xor2, 0.08);
    (Gk.Xnor2, 0.04);
    (Gk.Aoi21, 0.04);
    (Gk.Oai21, 0.04);
  |]

let generate tech profile =
  let rng = Rng.of_string profile.name in
  let n_inputs = max 4 (profile.path_gates / 4) in
  let t = Netlist.create ~capacity:(n_inputs + profile.total_gates) tech in
  let cmin = tech.Pops_process.Tech.cmin in
  let pis = Array.init n_inputs (fun _ -> Netlist.add_input t) in
  (* spine: pin 0 reads the previous spine node so depth is exactly the
     spine position; remaining pins read primary inputs only.  This keeps
     the bounded-path abstraction exact: sizing a spine gate never feeds
     back into another spine gate's load through a side pin (the paper's
     "may slow down adjacent upward paths" effect, which would force the
     iterative re-verification loop the protocol is designed to avoid). *)
  let spine = Array.make profile.path_gates (-1) in
  for i = 0 to profile.path_gates - 1 do
    let kind = Rng.weighted_pick rng spine_mix in
    let arity = Gk.arity kind in
    let prev = if i = 0 then pis.(0) else spine.(i - 1) in
    let other () = pis.(Rng.int rng n_inputs) in
    let fanins = Array.init arity (fun pin -> if pin = 0 then prev else other ()) in
    spine.(i) <- Netlist.add_gate t kind fanins
  done;
  Netlist.set_output t spine.(profile.path_gates - 1) ~load:profile.out_load;
  (* side gates: loads on the spine, sinks to primary outputs, no gate
     fan-outs -> they never extend the depth.  Real extracted circuits
     carry their reconvergent fan-out unevenly: a handful of hub nodes
     collect many consumers, so pick a few spine hubs and bias the side
     gates onto them with a heavy tail. *)
  let n_side = profile.total_gates - profile.path_gates in
  (* hubs live in the interior of the spine: the first stages are driven
     by the latch (fixed drive) and the last stage's consumers would
     deepen the circuit *)
  let last_attachable = max 1 (profile.path_gates - 2) in
  let hub_lo = min 2 (last_attachable - 1) in
  let n_hubs = max 1 (profile.path_gates / 6) in
  let hubs =
    Array.init n_hubs (fun _ ->
        spine.(hub_lo + Rng.int rng (max 1 (last_attachable - hub_lo))))
  in
  for _ = 1 to n_side do
    let kind = Rng.weighted_pick rng side_mix in
    let arity = Gk.arity kind in
    let pick_source () =
      let u = Rng.float rng 1. in
      if u < 0.30 then Rng.pick rng hubs
      else if u < 0.75 then begin
        let center = profile.path_gates / 2 in
        let spread = max 1 (profile.path_gates / 3) in
        let pos = center + Rng.int rng (2 * spread) - spread in
        spine.(Pops_util.Numerics.clamp ~lo:0.
                 ~hi:(float_of_int (last_attachable - 1))
                 (float_of_int pos)
               |> int_of_float)
      end
      else pis.(Rng.int rng n_inputs)
    in
    let fanins = Array.init arity (fun _ -> pick_source ()) in
    let side_cin = cmin *. Rng.log_range rng 1. (2. *. profile.side_load) in
    let g = Netlist.add_gate ~cin:side_cin t kind fanins in
    Netlist.set_output t g ~load:(cmin *. Rng.log_range rng 0.5 2.)
  done;
  (* routing capacitance: most spine nets are short, a few are long *)
  Array.iter
    (fun id ->
      if Rng.float rng 1. < 0.25 then
        Netlist.set_wire t id (cmin *. Rng.log_range rng 0.3 3.)
      else if Rng.float rng 1. < 0.08 then
        Netlist.set_wire t id (cmin *. Rng.log_range rng 4. 12.))
    spine;
  (match Netlist.validate t with
  | Ok () -> ()
  | Error msg -> failwith ("Generator.generate: " ^ msg));
  (t, Array.to_list spine)

(* ------------------------------------------------------------------ *)
(* full-chip scale profiles                                            *)
(* ------------------------------------------------------------------ *)

type scale_shape = Grid | Spine | Iscas

let scale_shape_name = function
  | Grid -> "grid"
  | Spine -> "spine"
  | Iscas -> "iscas"

(* layered datapath-like circuit: [depth ~ 3 log2 gates] layers of
   roughly equal width, every gate reading the previous layer.  All
   bookkeeping is per-gate constant work on dense arrays — no
   intermediate per-layer lists — so generation streams at any size. *)
let generate_grid tech ~name ~gates =
  let rng = Rng.of_string name in
  let log2 n =
    let r = ref 0 and v = ref n in
    while !v > 1 do
      incr r;
      v := !v / 2
    done;
    !r
  in
  let depth = max 8 (3 * log2 (max 2 gates)) in
  let width = max 4 (gates / depth) in
  let t = Netlist.create ~capacity:(width + gates) tech in
  let mix =
    [| (Gk.Inv, 0.22); (Gk.Nand 2, 0.34); (Gk.Nor 2, 0.22);
       (Gk.Nand 3, 0.12); (Gk.Nor 3, 0.10) |]
  in
  let prev = ref (Array.init width (fun _ -> Netlist.add_input t)) in
  let made = ref 0 in
  while !made < gates do
    let n_layer = min width (gates - !made) in
    let layer = Array.make n_layer (-1) in
    let src = !prev in
    let n_src = Array.length src in
    for j = 0 to n_layer - 1 do
      let kind = Rng.weighted_pick rng mix in
      let arity = Gk.arity kind in
      (* pin 0 strides across the layer so every source keeps at least a
         chance of a consumer; other pins are uniform *)
      let fanins =
        Array.init arity (fun pin ->
            if pin = 0 then src.(j mod n_src) else src.(Rng.int rng n_src))
      in
      layer.(j) <- Netlist.add_gate t kind fanins
    done;
    made := !made + n_layer;
    prev := layer
  done;
  (* every sink-less node becomes a primary output, so the circuit
     validates and timing sees a load at each endpoint *)
  let bound = Netlist.id_bound t in
  for id = 0 to bound - 1 do
    if
      Netlist.node_exists t id
      && Netlist.fanouts t id = []
      && (match Netlist.kind t id with
         | Netlist.Cell _ -> true
         | Netlist.Primary_input -> false)
    then Netlist.set_output t id ~load:(tech.Pops_process.Tech.cmin *. 4.)
  done;
  t

(* one maximally deep chain — the Stack_overflow stress shape: depth
   equals the gate count, so any depth-recursive traversal dies here
   long before a million gates *)
let generate_spine tech ~name ~gates =
  let rng = Rng.of_string name in
  let n_inputs = 8 in
  let t = Netlist.create ~capacity:(n_inputs + gates) tech in
  let pis = Array.init n_inputs (fun _ -> Netlist.add_input t) in
  let mix = [| (Gk.Inv, 0.40); (Gk.Nand 2, 0.35); (Gk.Nor 2, 0.25) |] in
  let prev = ref pis.(0) in
  for _ = 1 to gates do
    let kind = Rng.weighted_pick rng mix in
    let arity = Gk.arity kind in
    let fanins =
      Array.init arity (fun pin ->
          if pin = 0 then !prev else pis.(Rng.int rng n_inputs))
    in
    prev := Netlist.add_gate t kind fanins
  done;
  Netlist.set_output t !prev ~load:60.;
  t

let generate_scale tech ~name ~gates ~shape =
  if gates < 8 then invalid_arg "Generator.generate_scale: gates < 8";
  match shape with
  | Grid -> generate_grid tech ~name ~gates
  | Spine -> generate_spine tech ~name ~gates
  | Iscas ->
    (* the reference spine+side shape, spine depth capped so the bulk of
       the budget goes to side fan-out the way a mapped ISCAS circuit
       spends it *)
    let path_gates = max 16 (min 2048 (gates / 48)) in
    fst (generate tech (make_profile ~name ~path_gates ~total_gates:gates ()))
