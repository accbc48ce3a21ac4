(* Tests for Pops_process.Tech and Pops_cell. *)

module Tech = Pops_process.Tech
module Gk = Pops_cell.Gate_kind
module Cell = Pops_cell.Cell
module Library = Pops_cell.Library

(* deterministic property tests: fixed RNG seed per test *)
let qtest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xC0FFEE |]) t

let tech = Tech.cmos025
let lib = Library.make tech

let check_close ?(eps = 1e-9) msg expected actual =
  if not (Pops_util.Numerics.close ~rtol:eps ~atol:eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* --- tech --- *)

let test_reduced_thresholds () =
  check_close "vtn" (0.5 /. 2.5) (Tech.vtn_reduced_vt tech Pops_process.Vt.Lvt);
  check_close "vtp" (0.55 /. 2.5) (Tech.vtp_reduced_vt tech Pops_process.Vt.Lvt)

let test_kp_smaller_than_kn () =
  Alcotest.(check bool) "P weaker than N" true (Tech.kp tech < tech.Tech.kn)

(* --- gate kinds --- *)

let test_arity () =
  Alcotest.(check int) "inv" 1 (Gk.arity Gk.Inv);
  Alcotest.(check int) "nand3" 3 (Gk.arity (Gk.Nand 3));
  Alcotest.(check int) "aoi21" 3 (Gk.arity Gk.Aoi21);
  Alcotest.(check int) "xor2" 2 (Gk.arity Gk.Xor2)

let test_eval_inv_nand_nor () =
  Alcotest.(check bool) "inv t" false (Gk.eval Gk.Inv [| true |]);
  Alcotest.(check bool) "nand2 tt" false (Gk.eval (Gk.Nand 2) [| true; true |]);
  Alcotest.(check bool) "nand2 tf" true (Gk.eval (Gk.Nand 2) [| true; false |]);
  Alcotest.(check bool) "nor2 ff" true (Gk.eval (Gk.Nor 2) [| false; false |]);
  Alcotest.(check bool) "nor2 tf" false (Gk.eval (Gk.Nor 2) [| true; false |])

let test_eval_complex () =
  Alcotest.(check bool) "aoi22 ab" false (Gk.eval Gk.Aoi22 [| true; true; false; false |]);
  Alcotest.(check bool) "aoi22 cd" false (Gk.eval Gk.Aoi22 [| false; true; true; true |]);
  Alcotest.(check bool) "aoi22 none" true (Gk.eval Gk.Aoi22 [| true; false; false; true |]);
  Alcotest.(check bool) "oai22" true (Gk.eval Gk.Oai22 [| false; false; true; true |]);
  Alcotest.(check bool) "oai22 both" false (Gk.eval Gk.Oai22 [| true; false; false; true |]);
  Alcotest.(check bool) "aoi21 ab" false (Gk.eval Gk.Aoi21 [| true; true; false |]);
  Alcotest.(check bool) "aoi21 c" false (Gk.eval Gk.Aoi21 [| false; true; true |]);
  Alcotest.(check bool) "aoi21 none" true (Gk.eval Gk.Aoi21 [| false; true; false |]);
  Alcotest.(check bool) "oai21" true (Gk.eval Gk.Oai21 [| false; false; true |]);
  Alcotest.(check bool) "xor2" true (Gk.eval Gk.Xor2 [| true; false |]);
  Alcotest.(check bool) "xnor2" true (Gk.eval Gk.Xnor2 [| true; true |])

let test_eval_bad_arity () =
  match Gk.eval (Gk.Nand 2) [| true |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_de_morgan_dual () =
  Alcotest.(check bool) "nor2 -> nand2" true
    (match Gk.de_morgan_dual (Gk.Nor 2) with
    | Some k -> Gk.equal k (Gk.Nand 2)
    | None -> false);
  Alcotest.(check bool) "inv has none" true (Gk.de_morgan_dual Gk.Inv = None)

let test_name_roundtrip () =
  List.iter
    (fun k ->
      match Gk.of_name (Gk.name k) with
      | Some k' -> Alcotest.(check bool) (Gk.name k) true (Gk.equal k k')
      | None -> Alcotest.failf "of_name failed for %s" (Gk.name k))
    Gk.all

let test_series_stacks () =
  Alcotest.(check int) "nand3 N stack" 3 (Gk.series_n (Gk.Nand 3));
  Alcotest.(check int) "nand3 P stack" 1 (Gk.series_p (Gk.Nand 3));
  Alcotest.(check int) "nor3 N stack" 1 (Gk.series_n (Gk.Nor 3));
  Alcotest.(check int) "nor3 P stack" 3 (Gk.series_p (Gk.Nor 3))

(* --- cells --- *)

let test_inverter_symmetry () =
  let inv = Library.find lib Gk.Inv in
  (* with k = k_nominal, S_HL is exactly 1 by normalisation *)
  check_close "inv S_HL" 1. inv.Cell.s_hl;
  (* rising edge slower because k < R *)
  Alcotest.(check bool) "S_LH > S_HL" true (inv.Cell.s_lh > inv.Cell.s_hl)

let test_logical_weight_ordering () =
  let w_hl k = (Library.find lib k).Cell.dw_hl in
  let w_lh k = (Library.find lib k).Cell.dw_lh in
  Alcotest.(check bool) "nand stacks N" true
    (w_hl (Gk.Nand 3) > w_hl (Gk.Nand 2) && w_hl (Gk.Nand 2) > w_hl Gk.Inv);
  Alcotest.(check bool) "nor stacks P" true
    (w_lh (Gk.Nor 3) > w_lh (Gk.Nor 2) && w_lh (Gk.Nor 2) > w_lh Gk.Inv);
  (* NOR is the inefficient gate: its slow edge is worse than NAND's slow
     edge (Table 2's ordering ultimately comes from this). *)
  let nor2 = Library.find lib (Gk.Nor 2) and nand2 = Library.find lib (Gk.Nand 2) in
  Alcotest.(check bool) "nor2 worst-edge S > nand2 worst-edge S" true
    (Float.max nor2.Cell.s_hl nor2.Cell.s_lh
     > Float.max nand2.Cell.s_hl nand2.Cell.s_lh)

let test_parasitic_grows_with_stack () =
  let p k = (Library.find lib k).Cell.par_ratio in
  Alcotest.(check bool) "nand3 > inv" true (p (Gk.Nand 3) > p Gk.Inv)

let test_area_monotone () =
  let nand2 = Library.find lib (Gk.Nand 2) in
  let a1 = Cell.area nand2 ~cin:5. and a2 = Cell.area nand2 ~cin:10. in
  Alcotest.(check bool) "monotone" true (a2 > a1)

let test_coupling_ratios () =
  let inv = Library.find lib Gk.Inv in
  (* falling output <- input rising couples through the P gate cap, which is
     k/(1+k) of the input cap, halved. *)
  check_close "cm hl" (0.5 *. 2. /. 3.) inv.Cell.cm_ratio_hl;
  check_close "cm lh" (0.5 *. 1. /. 3.) inv.Cell.cm_ratio_lh

let test_min_cin () =
  List.iter
    (fun k -> check_close "min cin is cmin" tech.Tech.cmin (Cell.min_cin (Library.find lib k)))
    Gk.all

(* --- library --- *)

let test_library_find_all () =
  List.iter (fun k -> ignore (Library.find lib k)) Gk.all

let test_library_missing () =
  let small = Library.make ~kinds:[ Gk.Inv ] tech in
  (match Library.find small (Gk.Nand 2) with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found");
  ignore (Library.inverter small)

let test_snap_cin () =
  let cmin = tech.Tech.cmin in
  check_close "snap exact" cmin (Library.snap_cin lib cmin);
  check_close "snap up" (2. *. cmin) (Library.snap_cin lib (1.5 *. cmin));
  let huge = 1000. *. cmin in
  check_close "beyond grid unchanged" huge (Library.snap_cin lib huge)

let test_drive_grid_sorted () =
  let g = Library.drive_grid lib in
  for i = 0 to Array.length g - 2 do
    Alcotest.(check bool) "ascending" true (g.(i) < g.(i + 1))
  done

(* --- second process --- *)

let test_cmos018_library () =
  let tech18 = Tech.cmos018 in
  let lib18 = Library.make tech18 in
  List.iter (fun k -> ignore (Library.find lib18 k)) Gk.all;
  (* faster process: smaller tau, smaller cmin *)
  Alcotest.(check bool) "tau shrinks" true (tech18.Tech.tau < tech.Tech.tau);
  Alcotest.(check bool) "cmin shrinks" true (tech18.Tech.cmin < tech.Tech.cmin);
  (* normalisation holds in any process: nominal inverter has S_HL = 1 *)
  let inv18 = Library.find lib18 Gk.Inv in
  check_close "inv S_HL at 180nm" 1. inv18.Cell.s_hl

let test_buf_kind () =
  let buf = Library.find lib Gk.Buf in
  Alcotest.(check bool) "non inverting" false (Gk.inverting Gk.Buf);
  Alcotest.(check int) "single input" 1 (Gk.arity Gk.Buf);
  Alcotest.(check bool) "has weights" true (buf.Cell.dw_hl > 0. && buf.Cell.dw_lh > 0.)

let test_pp_smoke () =
  let s = Format.asprintf "%a" Cell.pp (Library.find lib (Gk.Nand 3)) in
  Alcotest.(check bool) "mentions kind" true (String.length s > 5)

let test_corners () =
  let tt = tech in
  let ss = Tech.at_corner tt Tech.SS in
  let ff = Tech.at_corner tt Tech.FF in
  let sf = Tech.at_corner tt Tech.SF in
  let fs = Tech.at_corner tt Tech.FS in
  Alcotest.(check bool) "TT is identity" true (Tech.at_corner tt Tech.TT == tt);
  Alcotest.(check bool) "SS slower" true (ss.Tech.tau > tt.Tech.tau);
  Alcotest.(check bool) "FF faster" true (ff.Tech.tau < tt.Tech.tau);
  Alcotest.(check bool) "SF weakens N/P ratio" true (sf.Tech.r_ratio < tt.Tech.r_ratio);
  Alcotest.(check bool) "FS strengthens N/P ratio" true (fs.Tech.r_ratio > tt.Tech.r_ratio);
  Alcotest.(check bool) "names distinct" true
    (List.length
       (List.sort_uniq compare
          (List.map (fun c -> (Tech.at_corner tt c).Tech.name)
             [ Tech.TT; Tech.SS; Tech.FF; Tech.SF; Tech.FS ]))
    = 5)

let test_corner_delay_ordering () =
  (* FO4 at SS > TT > FF; the skewed corners change the rise/fall split *)
  let fo4 c = Pops_delay.Model.fo4_delay (Tech.at_corner tech c) in
  Alcotest.(check bool) "SS slowest" true (fo4 Tech.SS > fo4 Tech.TT);
  Alcotest.(check bool) "FF fastest" true (fo4 Tech.FF < fo4 Tech.TT);
  (* on an inverter, SF makes rising output relatively faster than FS *)
  let rise_fall c =
    let tc = Tech.at_corner tech c in
    let inv = Cell.make tc Gk.Inv in
    let tr = Pops_delay.Model.transition_time inv ~edge:Pops_delay.Edge.Rising ~cin:5. ~cload:20. in
    let tf = Pops_delay.Model.transition_time inv ~edge:Pops_delay.Edge.Falling ~cin:5. ~cload:20. in
    tr /. tf
  in
  Alcotest.(check bool) "SF favours rise vs FS" true
    (rise_fall Tech.SF < rise_fall Tech.FS)

(* --- properties --- *)

let kind_gen = QCheck.Gen.oneofl Gk.all
let kind_arb = QCheck.make ~print:Gk.name kind_gen

let prop_eval_total =
  QCheck.Test.make ~name:"eval total on all input combinations" ~count:100 kind_arb
    (fun k ->
      let n = Gk.arity k in
      let ok = ref true in
      for v = 0 to (1 lsl n) - 1 do
        let inputs = Array.init n (fun i -> v land (1 lsl i) <> 0) in
        let (_ : bool) = Gk.eval k inputs in
        ok := !ok && true
      done;
      !ok)

let prop_de_morgan_kind_logic =
  (* NOR(x) = !(x1|x2|...) = !x1 & !x2 & ... = !NAND(!x): the rewrite must
     invert the inputs AND the output to preserve the function. *)
  QCheck.Test.make ~name:"De Morgan dual is logically dual" ~count:50
    QCheck.(int_range 2 4)
    (fun n ->
      let nor = Gk.Nor n and nand = Gk.Nand n in
      let ok = ref true in
      for v = 0 to (1 lsl n) - 1 do
        let inputs = Array.init n (fun i -> v land (1 lsl i) <> 0) in
        let negated = Array.map not inputs in
        ok := !ok && Gk.eval nor inputs = not (Gk.eval nand negated)
      done;
      !ok)

let prop_dual_identity =
  (* for every kind with a dual: kind(x) = !dual(!x) on all vectors --
     the identity the De Morgan rewrite machinery relies on *)
  QCheck.Test.make ~name:"de morgan dual identity (all kinds)" ~count:50 kind_arb
    (fun k ->
      match Gk.de_morgan_dual k with
      | None -> true
      | Some dual ->
        let n = Gk.arity k in
        let ok = ref true in
        for v = 0 to (1 lsl n) - 1 do
          let inputs = Array.init n (fun i -> v land (1 lsl i) <> 0) in
          let negated = Array.map not inputs in
          ok := !ok && Gk.eval k inputs = not (Gk.eval dual negated)
        done;
        !ok)

let prop_snap_never_decreases =
  QCheck.Test.make ~name:"snap_cin never decreases a drive" ~count:300
    QCheck.(float_range 0.1 500.)
    (fun cin -> Library.snap_cin lib cin >= cin -. 1e-12)

let prop_area_linear_in_cin =
  QCheck.Test.make ~name:"area linear in cin" ~count:100
    (QCheck.pair kind_arb (QCheck.float_range 1. 50.))
    (fun (k, cin) ->
      let c = Library.find lib k in
      Pops_util.Numerics.close ~rtol:1e-9
        (2. *. Cell.area c ~cin)
        (Cell.area c ~cin:(2. *. cin)))

(* a stray POPS_FAULT must not perturb this deterministic suite;
   fault behaviour is covered by pops_prop and test_core's ladder *)
let () = Pops_check.Fault.clear ()

let () =
  Alcotest.run "pops_cell"
    [
      ( "tech",
        [
          Alcotest.test_case "reduced thresholds" `Quick test_reduced_thresholds;
          Alcotest.test_case "kp < kn" `Quick test_kp_smaller_than_kn;
        ] );
      ( "gate_kind",
        [
          Alcotest.test_case "arity" `Quick test_arity;
          Alcotest.test_case "eval inv/nand/nor" `Quick test_eval_inv_nand_nor;
          Alcotest.test_case "eval aoi/oai/xor" `Quick test_eval_complex;
          Alcotest.test_case "eval bad arity" `Quick test_eval_bad_arity;
          Alcotest.test_case "de morgan dual" `Quick test_de_morgan_dual;
          Alcotest.test_case "name roundtrip" `Quick test_name_roundtrip;
          Alcotest.test_case "series stacks" `Quick test_series_stacks;
          qtest prop_eval_total;
          qtest prop_de_morgan_kind_logic;
          qtest prop_dual_identity;
        ] );
      ( "cell",
        [
          Alcotest.test_case "inverter symmetry" `Quick test_inverter_symmetry;
          Alcotest.test_case "logical weight ordering" `Quick test_logical_weight_ordering;
          Alcotest.test_case "parasitic grows with stack" `Quick test_parasitic_grows_with_stack;
          Alcotest.test_case "area monotone" `Quick test_area_monotone;
          Alcotest.test_case "coupling ratios" `Quick test_coupling_ratios;
          Alcotest.test_case "min cin" `Quick test_min_cin;
          qtest prop_area_linear_in_cin;
        ] );
      ( "library",
        [
          Alcotest.test_case "find all kinds" `Quick test_library_find_all;
          Alcotest.test_case "missing kind" `Quick test_library_missing;
          Alcotest.test_case "snap cin" `Quick test_snap_cin;
          Alcotest.test_case "drive grid sorted" `Quick test_drive_grid_sorted;
          Alcotest.test_case "cmos018 library" `Quick test_cmos018_library;
          Alcotest.test_case "buf kind" `Quick test_buf_kind;
          Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
          Alcotest.test_case "corners" `Quick test_corners;
          Alcotest.test_case "corner delay ordering" `Quick test_corner_delay_ordering;
          qtest prop_snap_never_decreases;
        ] );
    ]
