(* Tests for Pops_delay: edge algebra, the eq. (1)-(3) model, and the
   bounded-path delay/gradient machinery everything downstream relies on. *)

module Tech = Pops_process.Tech
module Gk = Pops_cell.Gate_kind
module Cell = Pops_cell.Cell
module Library = Pops_cell.Library
module Edge = Pops_delay.Edge
module Model = Pops_delay.Model
module Path = Pops_delay.Path
module N = Pops_util.Numerics

(* deterministic property tests: fixed RNG seed per test *)
let qtest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xC0FFEE |]) t

let tech = Tech.cmos025
let lib = Library.make tech
let inv = Library.find lib Gk.Inv

let check_close ?(eps = 1e-9) msg expected actual =
  if not (N.close ~rtol:eps ~atol:eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* --- edge --- *)

let test_edge_algebra () =
  Alcotest.(check bool) "flip rise" true (Edge.equal Edge.Falling (Edge.flip Edge.Rising));
  Alcotest.(check bool) "double flip" true
    (Edge.equal Edge.Rising (Edge.flip (Edge.flip Edge.Rising)));
  Alcotest.(check bool) "inverting propagate" true
    (Edge.equal Edge.Falling (Edge.propagate ~inverting:true Edge.Rising));
  Alcotest.(check bool) "non-inverting propagate" true
    (Edge.equal Edge.Rising (Edge.propagate ~inverting:false Edge.Rising))

(* --- model --- *)

let test_transition_linear_in_load () =
  let t1 = Model.transition_time inv ~edge:Edge.Falling ~cin:5. ~cload:10. in
  let t2 = Model.transition_time inv ~edge:Edge.Falling ~cin:5. ~cload:20. in
  check_close ~eps:1e-9 "doubling load doubles transition" (2. *. t1) t2

let test_transition_inverse_in_drive () =
  let t1 = Model.transition_time inv ~edge:Edge.Falling ~cin:5. ~cload:10. in
  let t2 = Model.transition_time inv ~edge:Edge.Falling ~cin:10. ~cload:10. in
  check_close ~eps:1e-9 "doubling drive halves transition" (t1 /. 2.) t2

let test_rising_slower_than_falling () =
  let tf = Model.transition_time inv ~edge:Edge.Falling ~cin:5. ~cload:10. in
  let tr = Model.transition_time inv ~edge:Edge.Rising ~cin:5. ~cload:10. in
  Alcotest.(check bool) "P weaker at nominal k" true (tr > tf)

let test_slope_term_adds_delay () =
  let d_fast, _ =
    Model.stage_delay inv ~edge_out:Edge.Falling ~tau_in:0. ~cin:5. ~cload:10.
  in
  let d_slow, _ =
    Model.stage_delay inv ~edge_out:Edge.Falling ~tau_in:100. ~cin:5. ~cload:10.
  in
  check_close ~eps:1e-9 "slope contributes vT*tau_in/2"
    (Tech.vtn_reduced_vt tech Pops_process.Vt.Lvt *. 100. /. 2.)
    (d_slow -. d_fast)

let test_opts_disable_terms () =
  let no_slope = { Model.with_slope = false; with_coupling = true } in
  let d1, _ =
    Model.stage_delay ~opts:no_slope inv ~edge_out:Edge.Falling ~tau_in:500. ~cin:5.
      ~cload:10.
  in
  let d2, _ =
    Model.stage_delay ~opts:no_slope inv ~edge_out:Edge.Falling ~tau_in:0. ~cin:5.
      ~cload:10.
  in
  check_close "slope disabled" d1 d2;
  let no_coupling = { Model.with_slope = true; with_coupling = false } in
  let d3, tau_out =
    Model.stage_delay ~opts:no_coupling inv ~edge_out:Edge.Falling ~tau_in:0. ~cin:5.
      ~cload:10.
  in
  check_close ~eps:1e-9 "no coupling -> tau_out/2" (tau_out /. 2.) d3

let test_coupling_increases_delay () =
  let d_with, _ = Model.stage_delay inv ~edge_out:Edge.Falling ~tau_in:0. ~cin:5. ~cload:10. in
  let no_coupling = { Model.with_slope = true; with_coupling = false } in
  let d_without, _ =
    Model.stage_delay ~opts:no_coupling inv ~edge_out:Edge.Falling ~tau_in:0. ~cin:5.
      ~cload:10.
  in
  Alcotest.(check bool) "Miller coupling slows the gate" true (d_with > d_without)

let test_fo4_plausible () =
  let d = Model.fo4_delay tech in
  Alcotest.(check bool) (Printf.sprintf "FO4 = %.1f ps plausible for 250nm" d) true
    (d > 30. && d < 300.)

(* --- path --- *)

let mk_path ?(branch = 0.) ?(c_out = 50.) kinds =
  Path.of_kinds ~lib ~branch ~c_out kinds

let chain5 = mk_path [ Gk.Inv; Gk.Nand 2; Gk.Inv; Gk.Nor 2; Gk.Inv ]

let test_path_make_validations () =
  (match Path.make ~tech ~c_out:10. [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty path accepted");
  match Path.make ~tech ~c_out:(-1.) [ { Path.cell = inv; branch = 0. } ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative c_out accepted"

let test_edges_alternate () =
  (* all-inverting 5-chain starting Rising: outputs F,R,F,R,F *)
  let p = chain5 in
  let expected = [| Edge.Falling; Edge.Rising; Edge.Falling; Edge.Rising; Edge.Falling |] in
  Array.iteri
    (fun i e ->
      Alcotest.(check bool) (Printf.sprintf "edge %d" i) true (Edge.equal e p.Path.edges.(i)))
    expected

let test_clamp_fixes_drive () =
  let x = Array.make 5 100. in
  let y = Path.clamp_sizing chain5 x in
  check_close "drive pinned" chain5.Path.drive_cin y.(0);
  Alcotest.(check bool) "interior preserved" true (y.(2) = 100.)

let test_delay_positive_and_finite () =
  let d = Path.delay chain5 (Path.min_sizing chain5) in
  Alcotest.(check bool) "positive" true (d > 0. && Float.is_finite d)

let test_upsizing_interior_reduces_delay_at_min () =
  (* from the all-minimum sizing, enlarging the gate that drives the large
     terminal load (50 fF ~ 18x cmin) must reduce the path delay. *)
  let x = Path.min_sizing chain5 in
  let d0 = Path.delay chain5 x in
  let y = Array.copy x in
  y.(4) <- y.(4) *. 2.;
  let d1 = Path.delay chain5 y in
  Alcotest.(check bool) "upsizing the loaded output gate helps" true (d1 < d0)

let test_oversizing_eventually_hurts () =
  (* delay is convex: blowing one gate up enormously re-increases delay
     because it loads its driver. *)
  let x = Path.min_sizing chain5 in
  let y = Array.copy x in
  y.(2) <- y.(2) *. 2000.;
  Alcotest.(check bool) "oversizing hurts" true
    (Path.delay chain5 y > Path.delay chain5 x)

let test_delay_per_stage_sums () =
  let x = Path.min_sizing chain5 in
  let per = Path.delay_per_stage chain5 x in
  let sum = Array.fold_left (fun acc (d, _) -> acc +. d) 0. per in
  check_close ~eps:1e-9 "per-stage sums to total" (Path.delay chain5 x) sum

let test_loads_structure () =
  let x = Path.clamp_sizing chain5 [| 0.; 10.; 10.; 10.; 10. |] in
  let loads = Path.loads chain5 x in
  (* stage 3 load = cpar(10) + 0 + x4 = par*10 + 10 *)
  let nor2 = Library.find lib (Gk.Nor 2) in
  check_close ~eps:1e-9 "stage3 load" (Cell.cpar nor2 ~cin:10. +. 10.) loads.(3);
  (* last stage load ends on c_out *)
  check_close ~eps:1e-9 "stage4 load" (Cell.cpar inv ~cin:10. +. 50.) loads.(4)

let test_area_and_sum_cin () =
  let x = Path.min_sizing chain5 in
  Alcotest.(check bool) "area positive" true (Path.area chain5 x > 0.);
  (* 5 gates at cmin (drive = cmin too) -> sum ratio = 5 *)
  check_close ~eps:1e-9 "sum cin ratio" 5. (Path.sum_cin_ratio chain5 x)

let test_insert_stage () =
  let p = Path.with_stage_inserted chain5 ~at:2 { Path.cell = inv; branch = 0. } in
  Alcotest.(check int) "length+1" 6 (Path.length p);
  let kinds = Path.stage_kinds p in
  Alcotest.(check bool) "inserted inv at 3" true (Gk.equal (List.nth kinds 3) Gk.Inv)

let test_replace_stage () =
  let nand2 = Library.find lib (Gk.Nand 2) in
  let p = Path.with_stage_replaced chain5 ~at:3 { Path.cell = nand2; branch = 0. } in
  Alcotest.(check bool) "replaced" true
    (Gk.equal (List.nth (Path.stage_kinds p) 3) (Gk.Nand 2))

let test_branch_load_increases_delay () =
  let p0 = mk_path [ Gk.Inv; Gk.Inv; Gk.Inv ] in
  let p1 = mk_path ~branch:20. [ Gk.Inv; Gk.Inv; Gk.Inv ] in
  let x = Path.min_sizing p0 in
  Alcotest.(check bool) "branch slows path" true (Path.delay p1 x > Path.delay p0 x)

(* --- polarity and non-inverting kinds --- *)

let test_with_input_edge_flips () =
  let p = chain5 in
  let q = Path.with_input_edge p Edge.Falling in
  Alcotest.(check bool) "input edge changed" true
    (Edge.equal q.Path.input_edge Edge.Falling);
  Alcotest.(check bool) "stage edges flipped" true
    (Edge.equal q.Path.edges.(0) Edge.Rising);
  (* same-edge request returns an equivalent path *)
  let r = Path.with_input_edge p Edge.Rising in
  Alcotest.(check bool) "identity" true (Edge.equal r.Path.input_edge Edge.Rising)

let test_delay_worst_and_avg_bracket () =
  let x = Path.min_sizing chain5 in
  let dr = Path.delay chain5 x in
  let df = Path.delay (Path.with_input_edge chain5 Edge.Falling) x in
  let worst = Path.delay_worst chain5 x in
  let avg = Path.delay_avg chain5 x in
  check_close ~eps:1e-9 "worst is max" (Float.max dr df) worst;
  check_close ~eps:1e-9 "avg is mean" (0.5 *. (dr +. df)) avg

let test_xor_path_keeps_edge () =
  (* XOR2 is non-inverting: the edge does not flip through it *)
  let p = mk_path [ Gk.Inv; Gk.Xor2; Gk.Inv ] in
  Alcotest.(check bool) "inv flips" true (Edge.equal p.Path.edges.(0) Edge.Falling);
  Alcotest.(check bool) "xor keeps" true (Edge.equal p.Path.edges.(1) Edge.Falling);
  Alcotest.(check bool) "inv flips again" true (Edge.equal p.Path.edges.(2) Edge.Rising);
  Alcotest.(check bool) "delay finite" true
    (Float.is_finite (Path.delay p (Path.min_sizing p)))

let test_area_weight_matches_area () =
  let x = Path.clamp_sizing chain5 [| 0.; 7.; 9.; 11.; 13. |] in
  let total =
    Array.to_list (Array.mapi (fun i c -> Path.area_weight chain5 i *. c) x)
    |> List.fold_left ( +. ) 0.
  in
  check_close ~eps:1e-9 "sum of weights * cin = area" (Path.area chain5 x) total

(* --- gradient vs numerical reference --- *)

let sizing_gen n =
  QCheck.Gen.(array_size (return n) (float_range 3. 60.))

let path_gen =
  QCheck.Gen.(
    let* len = int_range 3 9 in
    let* kinds =
      list_size (return len)
        (oneofl [ Gk.Inv; Gk.Nand 2; Gk.Nand 3; Gk.Nor 2; Gk.Nor 3; Gk.Aoi21; Gk.Oai21 ])
    in
    let* branch = float_range 0. 15. in
    let* c_out = float_range 10. 200. in
    let* x = sizing_gen len in
    return (mk_path ~branch ~c_out kinds, x))

let path_arb =
  QCheck.make
    ~print:(fun (p, x) ->
      Format.asprintf "%a / [%s]" Path.pp p
        (String.concat ";" (Array.to_list (Array.map string_of_float x))))
    path_gen

let prop_gradient_matches_numerical =
  QCheck.Test.make ~name:"analytic gradient == numerical gradient" ~count:300 path_arb
    (fun (p, x) ->
      let x = Path.clamp_sizing p x in
      let g = Path.gradient p x in
      let gn = Numeric_oracle.gradient ~f:(fun y -> Path.delay p y) x in
      let ok = ref true in
      for i = 1 to Array.length x - 1 do
        let scale = Float.max 1e-3 (Float.max (Float.abs g.(i)) (Float.abs gn.(i))) in
        if Float.abs (g.(i) -. gn.(i)) /. scale > 1e-4 then ok := false
      done;
      !ok)

let prop_midpoint_convexity =
  QCheck.Test.make ~name:"path delay is midpoint-convex in sizing" ~count:300
    (QCheck.make
       QCheck.Gen.(
         let* p, x = path_gen in
         let* y = sizing_gen (Path.length p) in
         return (p, x, y)))
    (fun (p, x, y) ->
      let x = Path.clamp_sizing p x and y = Path.clamp_sizing p y in
      let mid = Array.mapi (fun i xi -> 0.5 *. (xi +. y.(i))) x in
      (* the Miller coupling factor perturbs exact convexity by a hair;
         allow a 0.1% relative slack *)
      let rhs = (0.5 *. Path.delay p x) +. (0.5 *. Path.delay p y) in
      Path.delay p mid <= rhs *. 1.001)

let prop_gradient_zero_entry_for_drive =
  QCheck.Test.make ~name:"gradient entry 0 is zero (input gate fixed)" ~count:50 path_arb
    (fun (p, x) -> (Path.gradient p x).(0) = 0.)

(* a stray POPS_FAULT must not perturb this deterministic suite;
   fault behaviour is covered by pops_prop and test_core's ladder *)
let () = Pops_check.Fault.clear ()

let () =
  Alcotest.run "pops_delay"
    [
      ("edge", [ Alcotest.test_case "algebra" `Quick test_edge_algebra ]);
      ( "model",
        [
          Alcotest.test_case "transition linear in load" `Quick test_transition_linear_in_load;
          Alcotest.test_case "transition inverse in drive" `Quick test_transition_inverse_in_drive;
          Alcotest.test_case "rising slower" `Quick test_rising_slower_than_falling;
          Alcotest.test_case "slope term" `Quick test_slope_term_adds_delay;
          Alcotest.test_case "opts disable terms" `Quick test_opts_disable_terms;
          Alcotest.test_case "coupling increases delay" `Quick test_coupling_increases_delay;
          Alcotest.test_case "FO4 plausible" `Quick test_fo4_plausible;
        ] );
      ( "path",
        [
          Alcotest.test_case "make validations" `Quick test_path_make_validations;
          Alcotest.test_case "edges alternate" `Quick test_edges_alternate;
          Alcotest.test_case "clamp fixes drive" `Quick test_clamp_fixes_drive;
          Alcotest.test_case "delay positive" `Quick test_delay_positive_and_finite;
          Alcotest.test_case "upsizing helps at min" `Quick test_upsizing_interior_reduces_delay_at_min;
          Alcotest.test_case "oversizing hurts" `Quick test_oversizing_eventually_hurts;
          Alcotest.test_case "per-stage sums" `Quick test_delay_per_stage_sums;
          Alcotest.test_case "loads structure" `Quick test_loads_structure;
          Alcotest.test_case "area and sum-cin" `Quick test_area_and_sum_cin;
          Alcotest.test_case "insert stage" `Quick test_insert_stage;
          Alcotest.test_case "replace stage" `Quick test_replace_stage;
          Alcotest.test_case "branch load slows" `Quick test_branch_load_increases_delay;
          Alcotest.test_case "with_input_edge" `Quick test_with_input_edge_flips;
          Alcotest.test_case "worst/avg bracket" `Quick test_delay_worst_and_avg_bracket;
          Alcotest.test_case "xor path keeps edge" `Quick test_xor_path_keeps_edge;
          Alcotest.test_case "area weights" `Quick test_area_weight_matches_area;
        ] );
      ( "gradient",
        [
          qtest prop_gradient_matches_numerical;
          qtest prop_midpoint_convexity;
          qtest prop_gradient_zero_entry_for_drive;
        ] );
    ]
