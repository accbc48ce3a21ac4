(* Tests for Pops_netlist: graph surgery, logic evaluation/equivalence,
   structural transforms and the synthetic circuit generator. *)

module Tech = Pops_process.Tech
module Gk = Pops_cell.Gate_kind
module Library = Pops_cell.Library
module Netlist = Pops_netlist.Netlist
module Logic = Pops_netlist.Logic
module Transform = Pops_netlist.Transform
module Builder = Pops_netlist.Builder
module Generator = Pops_netlist.Generator

let qtest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xC0FFEE |]) t

let tech = Tech.cmos025
let _lib = Library.make tech

let check_valid t =
  match Netlist.validate t with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invalid netlist: %s" msg

(* --- graph basics --- *)

let test_build_and_query () =
  let t = Netlist.create tech in
  let a = Netlist.add_input t in
  let b = Netlist.add_input t in
  let g = Netlist.add_gate t (Gk.Nand 2) [| a; b |] in
  let h = Netlist.add_gate t Gk.Inv [| g |] in
  Netlist.set_output t h ~load:12.;
  check_valid t;
  Alcotest.(check int) "gates" 2 (Netlist.gate_count t);
  Alcotest.(check int) "inputs" 2 (Netlist.input_count t);
  Alcotest.(check int) "depth" 2 (Netlist.depth t);
  Alcotest.(check (list int)) "fanouts of g" [ h ] (Netlist.node t g).Netlist.fanouts;
  (* load on h = terminal only; load on g = cin of h *)
  Alcotest.(check bool) "load h" true (Netlist.load_on t h = 12.);
  Alcotest.(check bool) "load g" true
    (Netlist.load_on t g = (Netlist.node t h).Netlist.cin);
  (* wide gates have no kind code; their kinds survive copy and restore *)
  let c = Netlist.add_input t and d = Netlist.add_input t in
  let wide =
    [ (Gk.Nand 5, [| a; b; c; d; g |]); (Gk.Nor 7, [| a; b; c; d; g; h; a |]);
      (Gk.Nand 1, [| c |]) ]
  in
  let ids = List.map (fun (k, fi) -> (k, Netlist.add_gate t k fi)) wide in
  List.iter (fun (_, id) -> Netlist.set_output t id ~load:3.) ids;
  check_valid t;
  let kinds what t =
    List.iter
      (fun (k, id) ->
        Alcotest.(check string) (what ^ " kind") (Gk.name k) (Gk.name (Netlist.gate_kind t id)))
      ids
  in
  kinds "built" t;
  let snap = Netlist.copy t in
  kinds "copy" snap;
  (* flip the original's to their duals: the copy keeps its own *)
  List.iter
    (fun (k, id) -> Netlist.replace_kind t id (Option.get (Gk.de_morgan_dual k)))
    ids;
  kinds "copy after edits" snap;
  let fresh = Netlist.create tech in
  Netlist.restore fresh ~from:snap;
  kinds "restored" fresh;
  Netlist.restore t ~from:snap;
  kinds "rewound" t

let test_arity_checked () =
  let t = Netlist.create tech in
  let a = Netlist.add_input t in
  match Netlist.add_gate t (Gk.Nand 2) [| a |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "arity violation accepted"

let test_unknown_fanin () =
  let t = Netlist.create tech in
  match Netlist.add_gate t Gk.Inv [| 99 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "dangling fanin accepted"

let test_set_fanin_updates_fanouts () =
  let t = Netlist.create tech in
  let a = Netlist.add_input t in
  let b = Netlist.add_input t in
  let g = Netlist.add_gate t Gk.Inv [| a |] in
  Netlist.set_fanin t g ~pin:0 b;
  check_valid t;
  Alcotest.(check (list int)) "a freed" [] (Netlist.node t a).Netlist.fanouts;
  Alcotest.(check (list int)) "b gained" [ g ] (Netlist.node t b).Netlist.fanouts

let test_delete_guards () =
  let t = Netlist.create tech in
  let a = Netlist.add_input t in
  let g = Netlist.add_gate t Gk.Inv [| a |] in
  let h = Netlist.add_gate t Gk.Inv [| g |] in
  (match Netlist.delete_gate t g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "deleted node with consumers");
  Netlist.set_output t h ~load:1.;
  (match Netlist.delete_gate t h with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "deleted primary output")

let test_topological_order () =
  let t = Builder.c17 tech in
  let order = Netlist.topological_order t in
  let pos = Hashtbl.create 16 in
  List.iteri (fun i id -> Hashtbl.replace pos id i) order;
  List.iter
    (fun id ->
      let n = Netlist.node t id in
      Array.iter
        (fun f ->
          Alcotest.(check bool) "fanin before gate" true
            (Hashtbl.find pos f < Hashtbl.find pos id))
        n.Netlist.fanins)
    (Netlist.gate_ids t)

let test_copy_independent () =
  let t = Builder.c17 tech in
  let c = Netlist.copy t in
  let g = List.hd (Netlist.gate_ids t) in
  Netlist.set_cin t g 42.;
  Alcotest.(check bool) "copy unaffected" true ((Netlist.node c g).Netlist.cin <> 42.)

(* a clean netlist validates without a minor-heap word per node: the
   sweep runs loops and top-level helpers, not a closure per fan-in or
   fan-out list; only the consumer CSR's arrays, on the major heap, are
   left *)
let test_validate_diags_allocation () =
  List.iter
    (fun shape ->
      let t = Generator.generate_scale tech ~name:"valloc" ~gates:10_000 ~shape in
      let w0 = Gc.minor_words () in
      let diags = Netlist.validate_diags t in
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check int) "clean" 0 (List.length diags);
      let nodes = Netlist.live_count t in
      if words >= float_of_int nodes then
        Alcotest.failf "%s: validate_diags allocated %.0f minor words for %d nodes"
          (Generator.scale_shape_name shape) words nodes)
    [ Generator.Grid; Generator.Iscas ]

(* the cached designation-order views follow every mutator of the two
   lists, and a repeated query returns the same list *)
let test_designation_views () =
  let t = Netlist.create tech in
  let a = Netlist.add_input t in
  let g = Netlist.add_gate t Gk.Inv [| a |] in
  let h = Netlist.add_gate t Gk.Inv [| g |] in
  Netlist.set_output t g ~load:5.;
  let ins = Netlist.inputs t and outs = Netlist.outputs t in
  Alcotest.(check bool) "inputs shared" true (Netlist.inputs t == ins);
  Alcotest.(check bool) "outputs shared" true (Netlist.outputs t == outs);
  let snap = Netlist.copy t in
  let b = Netlist.add_input t in
  Alcotest.(check (list int)) "add_input" [ a; b ] (Netlist.inputs t);
  Alcotest.(check int) "input_count" 2 (Netlist.input_count t);
  Netlist.set_output t h ~load:7.;
  Netlist.set_output t g ~load:6.;
  Alcotest.(check (list (pair int (float 0.)))) "set_output" [ (g, 6.); (h, 7.) ]
    (Netlist.outputs t);
  let _, b2 = Transform.insert_buffer t ~after:h in
  Alcotest.(check (list (pair int (float 0.)))) "designation moved" [ (g, 6.); (b2, 7.) ]
    (Netlist.outputs t);
  Netlist.restore t ~from:snap;
  Alcotest.(check (list int)) "restored inputs" [ a ] (Netlist.inputs t);
  Alcotest.(check int) "restored input_count" 1 (Netlist.input_count t);
  Alcotest.(check (list (pair int (float 0.)))) "restored outputs" [ (g, 5.) ]
    (Netlist.outputs t);
  Alcotest.(check (list int)) "copy untouched" [ a ] (Netlist.inputs snap)

(* --- logic --- *)

let test_c17_truth () =
  let t = Builder.c17 tech in
  (* independent reference model of c17 *)
  let reference v =
    match v with
    | [| i1; i2; i3; i4; i5 |] ->
      let nand a b = not (a && b) in
      let n10 = nand i1 i3 and n11 = nand i3 i4 in
      let n16 = nand i2 n11 and n19 = nand n11 i5 in
      [ nand n10 n16; nand n16 n19 ]
    | _ -> assert false
  in
  for pat = 0 to 31 do
    let v = Array.init 5 (fun i -> pat land (1 lsl i) <> 0) in
    let got = List.map snd (Logic.eval t v) in
    Alcotest.(check (list bool)) (Printf.sprintf "pattern %d" pat) (reference v) got
  done

let test_adder_matches_reference () =
  let bits = 4 in
  let t = Builder.ripple_carry_adder tech ~bits ~out_load:10. in
  check_valid t;
  for pat = 0 to (1 lsl ((2 * bits) + 1)) - 1 do
    let v = Array.init ((2 * bits) + 1) (fun i -> pat land (1 lsl i) <> 0) in
    let expected = Array.to_list (Builder.adder_reference ~bits v) in
    let got = List.map snd (Logic.eval t v) in
    Alcotest.(check (list bool)) "adder output" expected got
  done

let test_equivalent_self () =
  let t = Builder.c17 tech in
  match Logic.equivalent t (Netlist.copy t) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "self-equivalence failed: %s" m

let test_equivalent_detects_difference () =
  let t = Builder.c17 tech in
  let u = Netlist.copy t in
  (* flip one gate kind: NAND -> NOR changes the function *)
  let g = List.hd (Netlist.gate_ids u) in
  Netlist.replace_kind u g (Gk.Nor 2);
  (* 5 inputs: exhaustive, so the first mismatch is the lowest vector *)
  Alcotest.(check (result unit string)) "first mismatch" (Error "mismatch on 10000")
    (Logic.equivalent t u)

let test_mismatch_on_random_vectors () =
  (* 15 inputs: seeded random vectors; the text pins the vector stream
     (seed 0x5EED, draws chunk by chunk) and the lowest-lane choice *)
  let t = Generator.generate_scale tech ~name:"mismatch" ~gates:3000 ~shape:Generator.Iscas in
  let u = Netlist.copy t in
  let g =
    List.find
      (fun id -> (Netlist.node u id).Netlist.kind = Netlist.Cell (Gk.Nand 2))
      (Netlist.gate_ids u)
  in
  Alcotest.(check int) "first nand2" 21 g;
  Netlist.replace_kind u g (Gk.Nor 2);
  Alcotest.(check (result unit string)) "first mismatch"
    (Error "mismatch on 111010011000100") (Logic.equivalent t u)

let test_signal_probability () =
  let t = Netlist.create tech in
  let a = Netlist.add_input t in
  let b = Netlist.add_input t in
  let g = Netlist.add_gate t (Gk.Nand 2) [| a; b |] in
  Netlist.set_output t g ~load:1.;
  let probs = Logic.signal_probabilities t () in
  Alcotest.(check (float 0.)) "P(input=1)" 0.5 probs.(a);
  let p = probs.(g) in
  Alcotest.(check bool) "P(nand=1)=0.75" true (Float.abs (p -. 0.75) < 1e-9);
  let act = 2. *. p *. (1. -. p) in
  Alcotest.(check bool) "activity 2*0.75*0.25" true (Float.abs (act -. 0.375) < 1e-9)

(* --- transforms --- *)

let test_buffer_preserves_logic () =
  let t = Builder.c17 tech in
  let u = Netlist.copy t in
  let g = List.nth (Netlist.gate_ids u) 2 in
  let _b1, _b2 = Transform.insert_buffer u ~after:g in
  check_valid u;
  (match Logic.equivalent t u with
  | Ok () -> ()
  | Error m -> Alcotest.failf "buffer broke logic: %s" m);
  Alcotest.(check int) "two gates added" (Netlist.gate_count t + 2) (Netlist.gate_count u)

let test_buffer_moves_output_designation () =
  let t = Netlist.create tech in
  let a = Netlist.add_input t in
  let g = Netlist.add_gate t Gk.Inv [| a |] in
  Netlist.set_output t g ~load:20.;
  let _b1, b2 = Transform.insert_buffer t ~after:g in
  check_valid t;
  Alcotest.(check bool) "output moved to b2" true
    (List.mem_assoc b2 (Netlist.outputs t) && not (List.mem_assoc g (Netlist.outputs t)))

let test_buffer_for_subset () =
  let t = Netlist.create tech in
  let a = Netlist.add_input t in
  let g = Netlist.add_gate t Gk.Inv [| a |] in
  let c1 = Netlist.add_gate t Gk.Inv [| g |] in
  let c2 = Netlist.add_gate t Gk.Inv [| g |] in
  Netlist.set_output t c1 ~load:1.;
  Netlist.set_output t c2 ~load:1.;
  let _b1, b2 = Transform.insert_buffer_for t ~after:g ~only:[ c2 ] in
  check_valid t;
  Alcotest.(check bool) "c1 still reads g" true
    ((Netlist.node t c1).Netlist.fanins.(0) = g);
  Alcotest.(check bool) "c2 reads buffer" true
    ((Netlist.node t c2).Netlist.fanins.(0) = b2)

let test_de_morgan_preserves_logic () =
  let t = Netlist.create tech in
  let a = Netlist.add_input t in
  let b = Netlist.add_input t in
  let c = Netlist.add_input t in
  let g = Netlist.add_gate t (Gk.Nor 2) [| a; b |] in
  let h = Netlist.add_gate t (Gk.Nand 2) [| g; c |] in
  Netlist.set_output t h ~load:5.;
  let reference = Netlist.copy t in
  (match Transform.de_morgan t g with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  check_valid t;
  (match Logic.equivalent reference t with
  | Ok () -> ()
  | Error m -> Alcotest.failf "de morgan broke logic: %s" m);
  (* the NOR is gone *)
  let kinds = List.map (fun id -> (Netlist.node t id).Netlist.kind) (Netlist.gate_ids t) in
  Alcotest.(check bool) "no NOR left" true
    (not (List.exists (function Netlist.Cell (Gk.Nor _) -> true | _ -> false) kinds))

let test_de_morgan_absorbs_inverter () =
  let t = Netlist.create tech in
  let a = Netlist.add_input t in
  let b = Netlist.add_input t in
  let ia = Netlist.add_gate t Gk.Inv [| a |] in
  let g = Netlist.add_gate t (Gk.Nor 2) [| ia; b |] in
  Netlist.set_output t g ~load:5.;
  let reference = Netlist.copy t in
  let before = Netlist.gate_count t in
  (match Transform.de_morgan t g with Ok _ -> () | Error m -> Alcotest.fail m);
  check_valid t;
  (match Logic.equivalent reference t with
  | Ok () -> ()
  | Error m -> Alcotest.failf "absorption broke logic: %s" m);
  (* inverter on pin 0 absorbed: net gate change = -1 (ia) +1 (inv on b)
     +1 (output inv) = +1 *)
  Alcotest.(check int) "gate count" (before + 1) (Netlist.gate_count t)

let test_de_morgan_rejects_inv () =
  let t = Netlist.create tech in
  let a = Netlist.add_input t in
  let g = Netlist.add_gate t Gk.Inv [| a |] in
  Netlist.set_output t g ~load:1.;
  match Transform.de_morgan t g with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "INV must have no dual"

let test_cleanup_inverter_pairs () =
  let t = Netlist.create tech in
  let a = Netlist.add_input t in
  let i1 = Netlist.add_gate t Gk.Inv [| a |] in
  let i2 = Netlist.add_gate t Gk.Inv [| i1 |] in
  let g = Netlist.add_gate t (Gk.Nand 2) [| i2; a |] in
  Netlist.set_output t g ~load:5.;
  let reference = Netlist.copy t in
  let removed = Pops_check.Circuit.cleanup_inverter_pairs t in
  check_valid t;
  Alcotest.(check int) "two inverters removed" 2 removed;
  (match Logic.equivalent reference t with
  | Ok () -> ()
  | Error m -> Alcotest.failf "cleanup broke logic: %s" m);
  Alcotest.(check bool) "g reads a directly" true
    ((Netlist.node t g).Netlist.fanins.(0) = a)

(* --- generator --- *)

let profile = Generator.make_profile ~name:"testckt" ~path_gates:20 ()

let test_generator_valid_and_deterministic () =
  let t1, spine1 = Generator.generate tech profile in
  let t2, spine2 = Generator.generate tech profile in
  check_valid t1;
  Alcotest.(check (list int)) "same spine" spine1 spine2;
  Alcotest.(check int) "same gates" (Netlist.gate_count t1) (Netlist.gate_count t2);
  Alcotest.(check int) "spine length" 20 (List.length spine1);
  Alcotest.(check int) "total gates" 60 (Netlist.gate_count t1)

let test_generator_spine_is_depth () =
  let t, spine = Generator.generate tech profile in
  Alcotest.(check int) "depth equals spine length" (List.length spine) (Netlist.depth t)

let test_generator_spine_connected () =
  let t, spine = Generator.generate tech profile in
  let rec check = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "chain" true
        (Array.exists (fun f -> f = a) (Netlist.node t b).Netlist.fanins);
      check rest
    | [ _ ] | [] -> ()
  in
  check spine

let test_generator_different_names_differ () =
  let p2 = Generator.make_profile ~name:"otherckt" ~path_gates:20 () in
  let t1, _ = Generator.generate tech profile in
  let t2, _ = Generator.generate tech p2 in
  (* same sizes but different structure: compare kind histograms *)
  let h1 = Netlist.kind_histogram t1 and h2 = Netlist.kind_histogram t2 in
  Alcotest.(check bool) "structures differ" true (h1 <> h2 || Netlist.depth t1 <> Netlist.depth t2
    || (let s1 = List.map (fun id -> (Netlist.node t1 id).Netlist.fanins) (Netlist.gate_ids t1) in
        let s2 = List.map (fun id -> (Netlist.node t2 id).Netlist.fanins) (Netlist.gate_ids t2) in
        s1 <> s2))

let prop_generator_valid =
  QCheck.Test.make ~name:"generated circuits validate" ~count:20
    QCheck.(pair (int_range 3 40) (int_range 0 3))
    (fun (path_gates, salt) ->
      let p =
        Generator.make_profile
          ~name:(Printf.sprintf "rnd%d_%d" path_gates salt)
          ~path_gates ()
      in
      let t, spine = Generator.generate tech p in
      Netlist.validate t = Ok ()
      && List.length spine = path_gates
      && Netlist.depth t = path_gates)

let prop_buffer_any_node_keeps_logic =
  let t0 = Builder.c17 tech in
  let ids = Array.of_list (Pops_netlist.Netlist.gate_ids t0) in
  QCheck.Test.make ~name:"buffering any c17 node keeps logic" ~count:30
    QCheck.(int_range 0 (Array.length ids - 1))
    (fun i ->
      let u = Netlist.copy t0 in
      let _ = Transform.insert_buffer u ~after:ids.(i) in
      Netlist.validate u = Ok () && Logic.equivalent t0 u = Ok ())

let prop_de_morgan_random_netlists =
  (* generate a random circuit, rewrite every NOR, check equivalence on
     random vectors *)
  QCheck.Test.make ~name:"De Morgan on generated circuits keeps logic" ~count:10
    QCheck.(int_range 5 15)
    (fun path_gates ->
      let p =
        Generator.make_profile ~name:(Printf.sprintf "dm%d" path_gates) ~path_gates ()
      in
      let t, _ = Generator.generate tech p in
      let reference = Netlist.copy t in
      let nors =
        List.filter
          (fun id ->
            match (Netlist.node t id).Netlist.kind with
            | Netlist.Cell (Gk.Nor _) -> true
            | _ -> false)
          (Netlist.gate_ids t)
      in
      List.iter (fun id -> match Transform.de_morgan t id with Ok _ -> () | Error m -> failwith m) nors;
      Netlist.validate t = Ok () && Logic.equivalent ~vectors:256 reference t = Ok ())

(* --- bench format I/O --- *)

module Bench_io = Pops_netlist.Bench_io

let c17_bench_text = {|
# ISCAS c17
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
|}

let parse_ok text =
  match Bench_io.parse_diag tech text with
  | Ok r -> r
  | Error d -> Alcotest.failf "parse failed: %s" (Pops_robust.Diag.one_line d)

let test_bench_parse_c17 () =
  let t, names = parse_ok c17_bench_text in
  Alcotest.(check int) "5 inputs" 5 (Netlist.input_count t);
  Alcotest.(check int) "6 gates" 6 (Netlist.gate_count t);
  Alcotest.(check int) "2 outputs" 2 (List.length (Netlist.outputs t));
  Alcotest.(check bool) "names cover signals" true (List.length names = 11);
  (* identical function to the embedded builder version *)
  match Logic.equivalent (Builder.c17 tech) t with
  | Ok () -> ()
  | Error m -> Alcotest.failf "not c17: %s" m

let test_bench_and_or_expansion () =
  let t, _ =
    parse_ok "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"
  in
  (* AND = NAND + NOT *)
  Alcotest.(check int) "two gates" 2 (Netlist.gate_count t);
  let v = Logic.eval t [| true; true |] in
  Alcotest.(check bool) "1*1" true (List.assoc (fst (List.hd (Netlist.outputs t))) v);
  let v = Logic.eval t [| true; false |] in
  Alcotest.(check bool) "1*0" false (snd (List.hd v))

let test_bench_wide_gate_decomposition () =
  let t, _ =
    parse_ok
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nINPUT(f)\nOUTPUT(y)\n\
       y = NAND(a, b, c, d, e, f)\n"
  in
  Alcotest.(check bool) "decomposed into several gates" true (Netlist.gate_count t > 1);
  (* truth: NAND6 = false only when all six are true *)
  for pat = 0 to 63 do
    let v = Array.init 6 (fun i -> pat land (1 lsl i) <> 0) in
    let expected = not (Array.for_all Fun.id v) in
    let got = snd (List.hd (Logic.eval t v)) in
    Alcotest.(check bool) (Printf.sprintf "pattern %d" pat) expected got
  done

let test_bench_dff_split () =
  let t, _ =
    parse_ok "INPUT(a)\nOUTPUT(q)\nq = DFF(d)\nd = NOT(a)\n"
  in
  (* q becomes a pseudo input, d a pseudo output *)
  Alcotest.(check int) "two inputs (a and q)" 2 (Netlist.input_count t);
  Alcotest.(check bool) "d is an output" true (List.length (Netlist.outputs t) >= 1)

let test_bench_sizing_annotations_roundtrip () =
  let t, names = parse_ok "INPUT(a)\nOUTPUT(y)\ny = NOT(a) # cin=7.500 wire=1.250\n" in
  let y = List.assoc "y" names in
  Alcotest.(check bool) "cin parsed" true
    (Float.abs ((Netlist.node t y).Netlist.cin -. 7.5) < 1e-9);
  Alcotest.(check bool) "wire parsed" true
    (Float.abs ((Netlist.node t y).Netlist.wire -. 1.25) < 1e-9);
  let printed = Bench_io.to_string ~names t in
  let t2, names2 = parse_ok printed in
  let y2 = List.assoc "y" names2 in
  Alcotest.(check bool) "cin survives round trip" true
    (Float.abs ((Netlist.node t2 y2).Netlist.cin -. 7.5) < 1e-9)

let test_bench_roundtrip_generated () =
  let t, _ =
    Generator.generate tech (Generator.make_profile ~name:"io22" ~path_gates:22 ())
  in
  let printed = Bench_io.to_string t in
  let t2, _ = parse_ok printed in
  Alcotest.(check int) "same gate count" (Netlist.gate_count t) (Netlist.gate_count t2);
  match Logic.equivalent ~vectors:256 t t2 with
  | Ok () -> ()
  | Error m -> Alcotest.failf "round trip broke logic: %s" m

let test_bench_roundtrip_adder () =
  let t = Builder.ripple_carry_adder tech ~bits:4 ~out_load:10. in
  let printed = Bench_io.to_string t in
  let t2, _ = parse_ok printed in
  match Logic.equivalent t t2 with
  | Ok () -> ()
  | Error m -> Alcotest.failf "adder round trip: %s" m

let test_bench_errors () =
  let err text =
    match Bench_io.parse_diag tech text with
    | Error d -> Pops_robust.Diag.one_line d
    | Ok _ -> Alcotest.failf "expected error for %S" text
  in
  Alcotest.(check bool) "undefined signal" true
    (String.length (err "INPUT(a)\nOUTPUT(y)\ny = NOT(zzz)\n") > 0);
  Alcotest.(check bool) "double definition" true
    (String.length (err "INPUT(a)\ny = NOT(a)\ny = NOT(a)\nOUTPUT(y)\n") > 0);
  Alcotest.(check bool) "bad op" true
    (String.length (err "INPUT(a)\ny = FROB(a)\nOUTPUT(y)\n") > 0);
  Alcotest.(check bool) "undefined output" true
    (String.length (err "INPUT(a)\nOUTPUT(nope)\n") > 0);
  Alcotest.(check bool) "combinational cycle" true
    (String.length (err "a = NOT(b)\nb = NOT(a)\nOUTPUT(a)\n") > 0);
  Alcotest.(check bool) "unbalanced parenthesis" true
    (String.length (err "INPUT(a)\ny = NOT(a\nOUTPUT(y)\n") > 0);
  Alcotest.(check bool) "empty right-hand side" true
    (String.length (err "INPUT(a)\ny = \nOUTPUT(y)\n") > 0);
  Alcotest.(check bool) "zero-argument gate" true
    (String.length (err "INPUT(a)\ny = NOT()\nOUTPUT(y)\n") > 0)

let test_eval_packed_matches_scalar () =
  let t, _ =
    Generator.generate tech (Generator.make_profile ~name:"packed" ~path_gates:15 ())
  in
  let n_in = Netlist.input_count t in
  let rng = Pops_util.Rng.create 5L in
  let words = Array.init n_in (fun _ -> Pops_util.Rng.int64 rng) in
  let packed = Logic.eval_packed t words in
  for j = 0 to 63 do
    let v =
      Array.init n_in (fun i ->
          Int64.logand (Int64.shift_right_logical words.(i) j) 1L = 1L)
    in
    (* the record-based walker, not Logic.eval: both Logic entry points
       run the same sweep *)
    let scalar = Logic_oracle.eval t v in
    List.iter2
      (fun (id1, w) (id2, b) ->
        assert (id1 = id2);
        let bit = Int64.logand (Int64.shift_right_logical w j) 1L = 1L in
        if bit <> b then Alcotest.failf "lane %d node %d disagrees" j id1)
      packed scalar
  done

let test_bench_aoi22_roundtrip () =
  let t, _ =
    parse_ok "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\ny = AOI22(a, b, c, d)\n"
  in
  Alcotest.(check int) "one gate" 1 (Netlist.gate_count t);
  let t2, _ = parse_ok (Bench_io.to_string t) in
  match Logic.equivalent t t2 with
  | Ok () -> ()
  | Error m -> Alcotest.failf "aoi22 roundtrip: %s" m

let test_bench_out_of_order_definitions () =
  (* uses-before-defines must resolve *)
  let t, _ =
    parse_ok "INPUT(a)\nOUTPUT(y)\ny = NOT(x)\nx = NOT(a)\n"
  in
  Alcotest.(check int) "two gates" 2 (Netlist.gate_count t)

(* Node ids follow the sources, then the gates in (pass, line) order:
   the order repeated line-order passes over the unbuilt gates build
   them in.  Here pass 1 builds x1 (line 5); it readies x2 (line 3) and
   z (line 4), both above it, so they wait for pass 2; x2 there readies
   w (line 6, below it: same pass) and y (line 2: pass 3). *)
let test_bench_outputs_first_ids () =
  let t, names =
    parse_ok
      "OUTPUT(y)\ny = NOT(x2)\nx2 = NAND(x1, a)\nz = NOT(x1)\nx1 = NOT(b)\n\
       w = NOT(x2)\nINPUT(a)\nINPUT(b)\nOUTPUT(z)\nOUTPUT(w)\n"
  in
  Alcotest.(check (list (pair string int))) "names, sorted, with their ids"
    [ ("a", 0); ("b", 1); ("w", 5); ("x1", 2); ("x2", 3); ("y", 6); ("z", 4) ]
    names;
  Alcotest.(check string) "netlist by id"
    "INPUT(n0)\nINPUT(n1)\nOUTPUT(n6)\nOUTPUT(n4)\nOUTPUT(n5)\nn2 = NOT(n1)\n\
     n3 = NAND(n2, n0)\nn4 = NOT(n2)\nn5 = NOT(n3)\nn6 = NOT(n3)\n"
    (Bench_io.to_string t)

(* --- logic cones --- *)

(* a, b, c, d; g1 = NAND(a,b); g2 = NOR(c,d); g3 = NAND(g1,g2); i1 = NOT(g1) *)
let cone_fixture () =
  let t = Netlist.create tech in
  let a = Netlist.add_input t in
  let b = Netlist.add_input t in
  let c = Netlist.add_input t in
  let d = Netlist.add_input t in
  let g1 = Netlist.add_gate t (Gk.Nand 2) [| a; b |] in
  let g2 = Netlist.add_gate t (Gk.Nor 2) [| c; d |] in
  let g3 = Netlist.add_gate t (Gk.Nand 2) [| g1; g2 |] in
  let i1 = Netlist.add_gate t Gk.Inv [| g1 |] in
  Netlist.set_output t g3 ~load:10.;
  Netlist.set_output t i1 ~load:10.;
  (t, (a, b, c, d), (g1, g2, g3, i1))

let test_cone_support () =
  let t, (a, b, c, d), (g1, _, g3, i1) = cone_fixture () in
  Alcotest.(check (list int)) "support of g3" [ a; b; c; d ] (Logic.cone_support t g3);
  Alcotest.(check (list int)) "support of i1" [ a; b ] (Logic.cone_support t i1);
  Alcotest.(check (list int)) "support of g1" [ a; b ] (Logic.cone_support t g1);
  Alcotest.(check (list int)) "support of an input" [ a ] (Logic.cone_support t a)

let test_cone_function_table () =
  let t, _, (g1, _, _, i1) = cone_fixture () in
  (* NAND2 truth table over (a, b): 1 1 1 0 -> bits 0111 *)
  let _, table = Logic.cone_function t g1 in
  Alcotest.(check int) "one word" 1 (Array.length table);
  Alcotest.(check bool) "nand2 table" true (table.(0) = 7L);
  (* the inverter of g1 is AND: 0 0 0 1 *)
  let _, table = Logic.cone_function t i1 in
  Alcotest.(check bool) "and2 table" true (table.(0) = 8L)

let test_cone_limit_enforced () =
  (* a 17-input NAND chain exceeds cone_limit = 16 *)
  let t = Netlist.create tech in
  let first = Netlist.add_input t in
  let g = ref first in
  for _ = 1 to Logic.cone_limit do
    let i = Netlist.add_input t in
    g := Netlist.add_gate t (Gk.Nand 2) [| !g; i |]
  done;
  Netlist.set_output t !g ~load:10.;
  Alcotest.(check int) "support size" (Logic.cone_limit + 1)
    (List.length (Logic.cone_support t !g));
  (match Logic.cone_function t !g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "cone_function accepted an oversized support");
  match Logic.cone_equivalent t !g (Netlist.copy t) !g with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "cone_equivalent accepted an oversized union support"

let test_cone_equivalent_cross_netlist () =
  (* y = XOR(a,b) against its four-NAND decomposition, built separately *)
  let t1 = Netlist.create tech in
  let a = Netlist.add_input t1 in
  let b = Netlist.add_input t1 in
  let y1 = Netlist.add_gate t1 Gk.Xor2 [| a; b |] in
  Netlist.set_output t1 y1 ~load:10.;
  let t2 = Netlist.create tech in
  let a' = Netlist.add_input t2 in
  let b' = Netlist.add_input t2 in
  let n1 = Netlist.add_gate t2 (Gk.Nand 2) [| a'; b' |] in
  let n2 = Netlist.add_gate t2 (Gk.Nand 2) [| a'; n1 |] in
  let n3 = Netlist.add_gate t2 (Gk.Nand 2) [| b'; n1 |] in
  let y2 = Netlist.add_gate t2 (Gk.Nand 2) [| n2; n3 |] in
  Netlist.set_output t2 y2 ~load:10.;
  (match Logic.cone_equivalent t1 y1 t2 y2 with
  | Ok () -> ()
  | Error m -> Alcotest.failf "xor vs nand-xor: %s" m);
  (* and the same decomposition with one gate wrong is caught *)
  (match Logic.cone_equivalent t1 y1 t2 n1 with
  | Error m ->
    Alcotest.(check bool) "error names an assignment" true
      (String.length m > 0)
  | Ok () -> Alcotest.fail "xor declared equivalent to nand")

let test_de_morgan_preserves_cone () =
  let t, _, (_, g2, _, _) = cone_fixture () in
  let b = Netlist.copy t in
  match Transform.de_morgan b g2 with
  | Error m -> Alcotest.failf "de_morgan on nor2: %s" m
  | Ok inv_id -> (
    match Logic.cone_equivalent t g2 b inv_id with
    | Ok () -> ()
    | Error m -> Alcotest.failf "de_morgan cone mismatch: %s" m)

let prop_bench_roundtrip_fuzz =
  QCheck.Test.make ~name:"bench roundtrip on random circuits" ~count:8
    QCheck.(int_range 5 30)
    (fun path_gates ->
      let t, _ =
        Generator.generate tech
          (Generator.make_profile ~name:(Printf.sprintf "fz%d" path_gates)
             ~path_gates ())
      in
      match Bench_io.parse_diag tech (Bench_io.to_string t) with
      | Error _ -> false
      | Ok (t2, _) ->
        Netlist.validate t2 = Ok () && Logic.equivalent ~vectors:192 t t2 = Ok ())

(* a stray POPS_FAULT must not perturb this deterministic suite;
   fault behaviour is covered by pops_prop and test_core's ladder *)
let () = Pops_check.Fault.clear ()

let () =
  Alcotest.run "pops_netlist"
    [
      ( "graph",
        [
          Alcotest.test_case "build and query" `Quick test_build_and_query;
          Alcotest.test_case "arity checked" `Quick test_arity_checked;
          Alcotest.test_case "unknown fanin" `Quick test_unknown_fanin;
          Alcotest.test_case "set_fanin syncs fanouts" `Quick test_set_fanin_updates_fanouts;
          Alcotest.test_case "delete guards" `Quick test_delete_guards;
          Alcotest.test_case "topological order" `Quick test_topological_order;
          Alcotest.test_case "copy independent" `Quick test_copy_independent;
          Alcotest.test_case "designation-order views" `Quick test_designation_views;
          Alcotest.test_case "validate_diags allocation" `Quick
            test_validate_diags_allocation;
        ] );
      ( "logic",
        [
          Alcotest.test_case "c17 truth table" `Quick test_c17_truth;
          Alcotest.test_case "adder matches reference" `Quick test_adder_matches_reference;
          Alcotest.test_case "self equivalence" `Quick test_equivalent_self;
          Alcotest.test_case "detects difference" `Quick test_equivalent_detects_difference;
          Alcotest.test_case "mismatch on random vectors" `Quick
            test_mismatch_on_random_vectors;
          Alcotest.test_case "signal probability" `Quick test_signal_probability;
          Alcotest.test_case "cone support" `Quick test_cone_support;
          Alcotest.test_case "cone function table" `Quick test_cone_function_table;
          Alcotest.test_case "cone limit enforced" `Quick test_cone_limit_enforced;
          Alcotest.test_case "cone equivalence across netlists" `Quick
            test_cone_equivalent_cross_netlist;
          Alcotest.test_case "de morgan preserves cone" `Quick test_de_morgan_preserves_cone;
        ] );
      ( "transform",
        [
          Alcotest.test_case "buffer preserves logic" `Quick test_buffer_preserves_logic;
          Alcotest.test_case "buffer moves output" `Quick test_buffer_moves_output_designation;
          Alcotest.test_case "buffer subset" `Quick test_buffer_for_subset;
          Alcotest.test_case "de morgan preserves logic" `Quick test_de_morgan_preserves_logic;
          Alcotest.test_case "de morgan absorbs inverter" `Quick test_de_morgan_absorbs_inverter;
          Alcotest.test_case "de morgan rejects inv" `Quick test_de_morgan_rejects_inv;
          Alcotest.test_case "cleanup inverter pairs" `Quick test_cleanup_inverter_pairs;
          qtest prop_buffer_any_node_keeps_logic;
          qtest prop_de_morgan_random_netlists;
        ] );
      ( "generator",
        [
          Alcotest.test_case "valid and deterministic" `Quick test_generator_valid_and_deterministic;
          Alcotest.test_case "spine is depth" `Quick test_generator_spine_is_depth;
          Alcotest.test_case "spine connected" `Quick test_generator_spine_connected;
          Alcotest.test_case "different names differ" `Quick test_generator_different_names_differ;
          qtest prop_generator_valid;
        ] );
      ( "bench_io",
        [
          Alcotest.test_case "parse c17" `Quick test_bench_parse_c17;
          Alcotest.test_case "and/or expansion" `Quick test_bench_and_or_expansion;
          Alcotest.test_case "wide gate decomposition" `Quick test_bench_wide_gate_decomposition;
          Alcotest.test_case "dff split" `Quick test_bench_dff_split;
          Alcotest.test_case "sizing annotations" `Quick test_bench_sizing_annotations_roundtrip;
          Alcotest.test_case "roundtrip generated" `Quick test_bench_roundtrip_generated;
          Alcotest.test_case "roundtrip adder" `Quick test_bench_roundtrip_adder;
          Alcotest.test_case "errors" `Quick test_bench_errors;
          Alcotest.test_case "out-of-order defs" `Quick test_bench_out_of_order_definitions;
          Alcotest.test_case "outputs-first id order" `Quick test_bench_outputs_first_ids;
          Alcotest.test_case "packed matches scalar" `Quick test_eval_packed_matches_scalar;
          Alcotest.test_case "aoi22 roundtrip" `Quick test_bench_aoi22_roundtrip;
          qtest prop_bench_roundtrip_fuzz;
        ] );
    ]
