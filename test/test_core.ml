(* Tests for Pops_core: bounds, constant-sensitivity sizing, buffers,
   restructuring, domains, trade-off curves and the protocol. *)

module Tech = Pops_process.Tech
module Gk = Pops_cell.Gate_kind
module Library = Pops_cell.Library
module Path = Pops_delay.Path
module Bounds = Pops_core.Bounds
module Sens = Pops_core.Sensitivity
module Buffers = Pops_core.Buffers
module Restructure = Pops_core.Restructure
module Domains = Pops_core.Domains
module Tradeoff = Pops_core.Tradeoff
module Power = Pops_core.Power
module Protocol = Pops_core.Protocol
module N = Pops_util.Numerics

(* deterministic property tests: fixed RNG seed per test *)
let qtest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xC0FFEE |]) t

let tech = Tech.cmos025
let lib = Library.make tech

let mk ?(branch = 0.) ?(c_out = 100.) kinds = Path.of_kinds ~lib ~branch ~c_out kinds

(* an 11-gate path like the paper's Fig. 3 example *)
let path11 =
  mk ~branch:5. ~c_out:150.
    [ Gk.Inv; Gk.Nand 2; Gk.Inv; Gk.Nor 2; Gk.Nand 3; Gk.Inv; Gk.Aoi21;
      Gk.Inv; Gk.Nand 2; Gk.Nor 3; Gk.Inv ]

let path5 = mk [ Gk.Inv; Gk.Nand 2; Gk.Inv; Gk.Nor 2; Gk.Inv ]

(* --- bounds --- *)

let test_bounds_order () =
  let b = Bounds.compute path11 in
  Alcotest.(check bool) "tmin < tmax" true (b.Bounds.tmin < b.Bounds.tmax);
  Alcotest.(check bool) "tmin positive" true (b.Bounds.tmin > 0.)

let test_tmin_stationary () =
  let b = Bounds.compute path11 in
  Alcotest.(check bool) "gradient vanishes at tmin sizing" true
    (Bounds.verify_stationary ~beta:b.Bounds.beta_tmin path11 b.Bounds.sizing_tmin)

let test_tmin_beats_random_probes () =
  (* the optimizer minimises the balanced rise/fall delay; no random
     perturbation may beat it on that objective *)
  let b = Bounds.compute path11 in
  let d_opt = Path.delay_avg path11 b.Bounds.sizing_tmin in
  let rng = Pops_util.Rng.create 123L in
  for _ = 1 to 200 do
    let x =
      Array.map
        (fun s -> s *. Pops_util.Rng.log_range rng 0.3 3.)
        b.Bounds.sizing_tmin
    in
    let d = Path.delay_avg path11 (Path.clamp_sizing path11 x) in
    Alcotest.(check bool) "no probe beats tmin" true (d >= d_opt -. 1e-6)
  done

let test_tmin_trace_monotone_convergence () =
  (* Fig. 1: starting from minimum drive (Tmax), the iterations descend to
     Tmin. The first point is Tmax; the last is within tolerance of Tmin. *)
  let trace = Bounds.tmin_trace path11 in
  let b = Bounds.compute path11 in
  (match trace with
  | first :: _ ->
    Alcotest.(check bool) "first point is Tmax" true
      (N.close ~rtol:1e-9 first.Bounds.delay b.Bounds.tmax)
  | [] -> Alcotest.fail "empty trace");
  let last = List.nth trace (List.length trace - 1) in
  (* the trace follows the balanced iteration; Bounds.tmin may sit on a
     different polarity weighting, so allow a few percent *)
  Alcotest.(check bool) "last point is Tmin" true
    (last.Bounds.delay <= b.Bounds.tmin *. 1.05
    && last.Bounds.delay >= b.Bounds.tmin *. 0.999);
  Alcotest.(check bool) "area grows along the descent" true
    (last.Bounds.sum_cin_ratio > (List.hd trace).Bounds.sum_cin_ratio)

let test_tmin_independent_of_start () =
  (* the paper: "the final value Tmin is conserved whatever is the initial
     solution".  Start the balanced fixed point from a random point and
     from the minimum-drive point: same optimum. *)
  let x_ref = (Sens.solve path11).Sens.sizing in
  let rng = Pops_util.Rng.create 7L in
  let x0 = Array.map (fun s -> s *. Pops_util.Rng.log_range rng 0.5 8.) x_ref in
  let x = (Sens.solve ~x0:(Path.clamp_sizing path11 x0) path11).Sens.sizing in
  Alcotest.(check bool) "same Tmin from random start" true
    (Float.abs (Path.delay_worst path11 x -. Path.delay_worst path11 x_ref) < 0.1)

let test_feasibility () =
  let b = Bounds.compute path5 in
  Alcotest.(check bool) "tc above tmin feasible" true
    (Bounds.feasible path5 ~tc:(b.Bounds.tmin *. 1.2));
  Alcotest.(check bool) "tc below tmin infeasible" false
    (Bounds.feasible path5 ~tc:(b.Bounds.tmin *. 0.8))

(* --- sensitivity --- *)

let test_solve_rejects_positive_a () =
  match Sens.solve ~a:1.0 path5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_delay_monotone_in_a () =
  let ds =
    List.map
      (fun a -> Path.delay_worst path11 (Sens.solve ~a path11).Sens.sizing)
      [ 0.; -0.01; -0.05; -0.2; -1.; -5. ]
  in
  let rec check = function
    | d1 :: (d2 :: _ as rest) ->
      Alcotest.(check bool) "delay grows as a decreases" true (d2 >= d1 -. 1e-6);
      check rest
    | _ -> ()
  in
  check ds

let test_area_monotone_in_a () =
  let area_of a =
    Path.area path11 (Sens.solve ~a ~beta:1. ~tol:1e-6 path11).Sens.sizing
  in
  let areas = List.map area_of [ 0.; -0.05; -0.5; -5. ] in
  let rec check = function
    | a1 :: (a2 :: _ as rest) ->
      Alcotest.(check bool) "area shrinks as a decreases" true (a2 <= a1 +. 1e-6);
      check rest
    | _ -> ()
  in
  check areas

let test_size_for_constraint_meets_tc () =
  let b = Bounds.compute path11 in
  let tc = 1.3 *. b.Bounds.tmin in
  match Sens.size_for_constraint path11 ~tc with
  | Ok r ->
    Alcotest.(check bool) "constraint met" true (r.Sens.delay <= tc +. 0.05);
    Alcotest.(check bool) "tight (within 2% of tc)" true (r.Sens.delay >= 0.9 *. tc);
    Alcotest.(check bool) "cheaper than tmin sizing" true
      (r.Sens.area <= Path.area path11 b.Bounds.sizing_tmin +. 1e-6)
  | Error (`Infeasible _) -> Alcotest.fail "1.3 Tmin must be feasible"

let test_size_for_constraint_infeasible () =
  let b = Bounds.compute path11 in
  match Sens.size_for_constraint path11 ~tc:(0.9 *. b.Bounds.tmin) with
  | Error (`Infeasible tmin) ->
    Alcotest.(check bool) "reports tmin" true (Float.abs (tmin -. b.Bounds.tmin) < 0.5)
  | Ok _ -> Alcotest.fail "sub-Tmin constraint must be infeasible"

let test_size_for_constraint_loose () =
  let tmax = Bounds.tmax path11 in
  match Sens.size_for_constraint path11 ~tc:(2. *. tmax) with
  | Ok r ->
    let min_area = Path.area path11 (Path.min_sizing path11) in
    Alcotest.(check bool) "loose constraint -> minimum area" true
      (N.close ~rtol:1e-6 min_area r.Sens.area)
  | Error _ -> Alcotest.fail "loose constraint must be feasible"

let test_frozen_stages_kept () =
  let x0 = Path.min_sizing path5 in
  x0.(2) <- 17.;
  let x = (Sens.solve ~frozen:[ 2 ] ~x0 ~beta:1. ~tol:1e-6 path5).Sens.sizing in
  Alcotest.(check bool) "frozen stage untouched" true (x.(2) = 17.)

let test_sutherland_vs_sensitivity_area () =
  (* Section 3.2's claim: at the same hard constraint the constant
     sensitivity method needs less area than equal-delay distribution. *)
  let b = Bounds.compute path11 in
  let tc = 1.2 *. b.Bounds.tmin in
  let x_suth = Pops_baselines.Sutherland.size path11 ~tc in
  let d_suth = Path.delay path11 x_suth in
  match Sens.size_for_constraint path11 ~tc with
  | Error _ -> Alcotest.fail "feasible tc"
  | Ok r ->
    if d_suth <= tc +. 0.5 then
      Alcotest.(check bool)
        (Printf.sprintf "sensitivity area %.1f <= sutherland area %.1f" r.Sens.area
           (Path.area path11 x_suth))
        true
        (r.Sens.area <= Path.area path11 x_suth +. 1e-6)
    else
      (* Sutherland missed the constraint entirely - also a win for the
         sensitivity method; record it. *)
      Alcotest.(check bool) "sutherland missed tc" true true

(* --- buffers --- *)

let test_flimit_ordering () =
  (* Table 2: inv > nand2 > nand3 > nor2 > nor3 *)
  let f gate = Buffers.flimit ~lib ~driver:Gk.Inv ~gate () in
  let fi = f Gk.Inv and fn2 = f (Gk.Nand 2) and fn3 = f (Gk.Nand 3) in
  let fr2 = f (Gk.Nor 2) and fr3 = f (Gk.Nor 3) in
  Alcotest.(check bool)
    (Printf.sprintf "ordering: %.1f %.1f %.1f %.1f %.1f" fi fn2 fn3 fr2 fr3)
    true
    (fi > fn2 && fn2 > fn3 && fn3 > fr2 && fr2 > fr3)

let test_flimit_finite_and_plausible () =
  let f = Buffers.flimit ~lib ~driver:Gk.Inv ~gate:Gk.Inv () in
  Alcotest.(check bool) (Printf.sprintf "inv flimit %.1f in [2,30]" f) true
    (f > 2. && f < 30.)

let test_buffered_beats_direct_beyond_limit () =
  let gate = Gk.Nor 3 in
  let fl = Buffers.flimit ~lib ~driver:Gk.Inv ~gate () in
  let gate_cin = 4. *. tech.Tech.cmin in
  let test_f f expect_buffer_wins =
    let cload = f *. gate_cin in
    let direct = Buffers.delay_direct ~lib ~driver:Gk.Inv ~gate ~gate_cin ~cload in
    let buffered, _ =
      Buffers.delay_buffered ~lib ~driver:Gk.Inv ~gate ~gate_cin ~cload ()
    in
    Alcotest.(check bool)
      (Printf.sprintf "F=%.1f direct=%.1f buffered=%.1f" f direct buffered)
      expect_buffer_wins (buffered < direct)
  in
  test_f (fl *. 2.) true;
  test_f (fl /. 2.) false

let test_path_fanouts () =
  let x = Path.min_sizing path5 in
  let f = Buffers.path_fanouts path5 x in
  Alcotest.(check int) "one per stage" 5 (Array.length f);
  Array.iter (fun v -> Alcotest.(check bool) "positive" true (v > 0.)) f

let heavy_path =
  (* a path with a hugely overloaded, inverter-fed NOR3: prime target for
     both buffer insertion and the absorbed De Morgan rewrite *)
  mk ~c_out:30.
    [ Gk.Inv; Gk.Nand 2; Gk.Inv; Gk.Nor 3; Gk.Inv; Gk.Inv ]
  |> fun p ->
  Path.with_stage_replaced p ~at:3
    { Path.cell = Pops_cell.Library.find lib (Gk.Nor 3); branch = 400. }

let test_critical_nodes_found () =
  let nodes = Buffers.critical_nodes ~lib heavy_path in
  Alcotest.(check bool) "the overloaded NOR3 is critical" true (List.mem 3 nodes)

let test_global_insertion_improves_tmin () =
  let b = Bounds.compute heavy_path in
  let r = Buffers.insert_global ~objective:`Tmin ~lib heavy_path in
  Alcotest.(check bool) "structure modified (pair or shield)" true
    (r.Buffers.inserted_after <> [] || r.Buffers.shields <> []);
  Alcotest.(check bool)
    (Printf.sprintf "tmin improved: %.1f -> %.1f" b.Bounds.tmin r.Buffers.delay)
    true
    (r.Buffers.delay < b.Bounds.tmin)

let test_shield_stage_dilutes () =
  match Buffers.shield_stage ~lib heavy_path ~at:3 with
  | None -> Alcotest.fail "the 400 fF branch must be shieldable"
  | Some (p, sh) ->
    Alcotest.(check int) "same length" (Path.length heavy_path) (Path.length p);
    Alcotest.(check bool) "branch reduced" true
      (p.Path.stages.(3).Path.branch < heavy_path.Path.stages.(3).Path.branch /. 4.);
    Alcotest.(check bool) "shield area positive" true (sh.Buffers.shield_area > 0.);
    Alcotest.(check bool) "b2 sized for the branch" true
      (sh.Buffers.b2 >= sh.Buffers.b1)

let test_shield_stage_rejects_small_branch () =
  (* path5 has no branch loads: nothing to dilute *)
  Alcotest.(check bool) "no shield on tiny branch" true
    (Buffers.shield_stage ~lib path5 ~at:2 = None)

let test_global_insertion_never_worse () =
  (* on a path with no overloaded node the result must not regress *)
  let b = Bounds.compute path5 in
  let r = Buffers.insert_global ~objective:`Tmin ~lib path5 in
  Alcotest.(check bool) "no regression" true (r.Buffers.delay <= b.Bounds.tmin +. 1e-6)

(* [~base], the base path's constraint answer handed in as the
   incumbent, gives the unscreened greedy's result bit for bit: below
   Tmin (an [Error] answer) on a path with no overloaded node, where the
   incumbent is the result, and on one whose trials win, and above Tmin *)
let test_global_insertion_from_base () =
  List.iter
    (fun (name, p, ratio) ->
      let tc = ratio *. (Bounds.compute p).Bounds.tmin in
      let objective = `Area_at tc in
      let base = Sens.size_for_constraint p ~tc in
      let r = Buffers.insert_global ~objective ~base ~lib p in
      match Buffers_oracle.diff r (Buffers_oracle.insert_global ~objective ~lib p) with
      | None -> ()
      | Some field ->
        Alcotest.failf "%s at %.2f Tmin: differs from the oracle in %s" name ratio field)
    [ ("path5", path5, 0.9); ("path5", path5, 1.3); ("heavy", heavy_path, 0.97);
      ("heavy", heavy_path, 1.3) ]

let test_local_insertion_keeps_original_sizes () =
  let b = Bounds.compute heavy_path in
  let r = Buffers.insert_local ~lib heavy_path b.Bounds.sizing_tmin in
  (* shields only: same stage count, sizes untouched, delay not worse *)
  Alcotest.(check int) "same length" (Path.length heavy_path) (Path.length r.Buffers.path);
  Alcotest.(check bool) "shield on the loaded NOR3" true
    (List.exists (fun s -> s.Buffers.stage = 3) r.Buffers.shields);
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) (Printf.sprintf "size %d kept" i) true
        (Float.abs (c -. b.Bounds.sizing_tmin.(i)) < 1e-9))
    r.Buffers.sizing;
  Alcotest.(check bool) "delay not worse" true (r.Buffers.delay <= b.Bounds.tmin +. 1e-6);
  Alcotest.(check bool) "area grew by the shields" true
    (r.Buffers.area > Path.area heavy_path b.Bounds.sizing_tmin)

(* --- restructure --- *)

let nor_path =
  (* NORs carrying real branch loads: the restructuring candidates *)
  let nor3 = Pops_cell.Library.find lib (Gk.Nor 3) in
  let nor2 = Pops_cell.Library.find lib (Gk.Nor 2) in
  mk ~c_out:120. [ Gk.Inv; Gk.Nand 2; Gk.Nor 3; Gk.Inv; Gk.Nor 2; Gk.Inv ]
  |> fun p -> Path.with_stage_replaced p ~at:2 { Path.cell = nor3; branch = 90. }
  |> fun p -> Path.with_stage_replaced p ~at:4 { Path.cell = nor2; branch = 90. }

let test_candidates_are_nors () =
  let cands = Restructure.candidates ~lib nor_path in
  Alcotest.(check (list int)) "NOR stages" [ 2; 4 ] cands

let test_apply_structure () =
  match Restructure.apply ~lib nor_path with
  | None -> Alcotest.fail "rewrite expected"
  | Some r ->
    (* NOR3 at 2 is NAND2-fed: expanded form (+2 stages); NOR2 at 4 is fed
       by the inverter at 3: absorbed form (+0 stages). *)
    Alcotest.(check int) "stage count" (6 + 2) (Path.length r.Restructure.path);
    Alcotest.(check int) "two rewrites" 2 (List.length r.Restructure.rewrites);
    Alcotest.(check bool) "side area positive" true (r.Restructure.side_area > 0.);
    let kinds = Path.stage_kinds r.Restructure.path in
    Alcotest.(check bool) "no NOR left" true
      (not (List.exists (function Gk.Nor _ -> true | _ -> false) kinds))

let test_apply_absorbs_feeding_inverter () =
  (* [INV NOR2] with a clean feeding inverter collapses to [NAND2 INV]. *)
  let nor2 = Pops_cell.Library.find lib (Gk.Nor 2) in
  let p =
    mk ~c_out:90. [ Gk.Inv; Gk.Nand 2; Gk.Inv; Gk.Nor 2; Gk.Inv ]
    |> fun p -> Path.with_stage_replaced p ~at:3 { Path.cell = nor2; branch = 100. }
  in
  match Restructure.apply ~lib p with
  | None -> Alcotest.fail "rewrite expected"
  | Some r ->
    Alcotest.(check int) "same stage count" 5 (Path.length r.Restructure.path);
    let kinds = Path.stage_kinds r.Restructure.path in
    Alcotest.(check bool) "nand2 present at 2" true (Gk.equal (List.nth kinds 2) (Gk.Nand 2));
    Alcotest.(check bool) "inverter after it" true (Gk.equal (List.nth kinds 3) Gk.Inv)

let test_apply_none_without_nor () =
  (* NAND's dual is NOR, which is *less* efficient, so a NAND/INV path has
     no rewrite candidates. *)
  let p = mk [ Gk.Inv; Gk.Nand 2; Gk.Inv; Gk.Nand 3; Gk.Inv ] in
  Alcotest.(check (list int)) "no candidates" [] (Restructure.candidates ~lib p);
  Alcotest.(check bool) "apply returns None" true (Restructure.apply ~lib p = None)

let test_restructure_area_beats_buffers_hard () =
  (* Table 4's claim: on a loaded, inverter-fed NOR under a hard
     constraint, restructuring is cheaper than buffer insertion. *)
  let nor3 = Pops_cell.Library.find lib (Gk.Nor 3) in
  let p =
    mk ~c_out:80. [ Gk.Inv; Gk.Nand 2; Gk.Inv; Gk.Nor 3; Gk.Inv; Gk.Nand 2; Gk.Inv ]
  in
  let p = Path.with_stage_replaced p ~at:3 { Path.cell = nor3; branch = 250. } in
  let b = Bounds.compute p in
  let tc = 1.1 *. b.Bounds.tmin in
  let buf = Buffers.insert_global ~objective:(`Area_at tc) ~lib p in
  match Restructure.optimize ~lib p ~tc with
  | None -> Alcotest.fail "restructure must be feasible here"
  | Some o ->
    Alcotest.(check bool)
      (Printf.sprintf "restructure %.1f <= buffers %.1f um" o.Restructure.o_area
         buf.Buffers.area)
      true
      (o.Restructure.o_area <= buf.Buffers.area)

(* --- domains --- *)

let test_classify () =
  let t d = Domains.classify ~tmin:100. ~tc:d in
  Alcotest.(check bool) "weak" true (t 300. = Domains.Weak);
  Alcotest.(check bool) "medium" true (t 180. = Domains.Medium);
  Alcotest.(check bool) "hard" true (t 110. = Domains.Hard);
  Alcotest.(check bool) "boundary 1.2 is hard" true (t 120. = Domains.Hard);
  Alcotest.(check bool) "boundary 2.5 is medium" true (t 250. = Domains.Medium);
  Alcotest.(check bool) "infeasible" true (t 90. = Domains.Infeasible)

let test_representative_tc () =
  List.iter
    (fun d ->
      let tc = Domains.representative_tc ~tmin:100. d in
      Alcotest.(check bool) (Domains.to_string d) true
        (Domains.classify ~tmin:100. ~tc = d))
    [ Domains.Weak; Domains.Medium; Domains.Hard; Domains.Infeasible ]

(* --- tradeoff --- *)

let test_curve_monotone () =
  let curve = Tradeoff.curve ~points:15 path11 in
  Alcotest.(check int) "points" 15 (List.length curve);
  let rec check = function
    | p :: (q :: _ as rest) ->
      Alcotest.(check bool) "delay non-decreasing" true
        (q.Tradeoff.delay >= p.Tradeoff.delay -. 1e-6);
      Alcotest.(check bool) "area non-increasing" true
        (q.Tradeoff.area <= p.Tradeoff.area +. 1e-6);
      check rest
    | _ -> ()
  in
  check curve

let test_curve_endpoints () =
  let curve = Tradeoff.curve ~points:15 path11 in
  let b = Bounds.compute path11 in
  (match curve with
  | first :: _ ->
    (* the curve's a = 0 endpoint is the balanced minimum: within a few
       percent above the grid Tmin, never below *)
    Alcotest.(check bool) "starts at tmin" true
      (first.Tradeoff.delay >= b.Bounds.tmin -. 0.5
      && first.Tradeoff.delay <= b.Bounds.tmin *. 1.05)
  | [] -> Alcotest.fail "empty curve")

(* --- power --- *)

let test_leakage_tracks_area_and_corner () =
  let b = Bounds.compute path11 in
  let p_small = Power.of_path path11 (Path.min_sizing path11) in
  let p_big = Power.of_path path11 b.Bounds.sizing_tmin in
  Alcotest.(check bool) "leakage grows with width" true
    (p_big.Power.leakage_uw > p_small.Power.leakage_uw);
  (* slow corner leaks less, fast corner more *)
  let leak corner =
    let techc = Tech.at_corner tech corner in
    let libc = Library.make techc in
    let p = Path.of_kinds ~lib:libc ~c_out:100. [ Gk.Inv; Gk.Inv; Gk.Inv ] in
    (Power.of_path p (Path.min_sizing p)).Power.leakage_uw
  in
  Alcotest.(check bool) "SS < TT < FF leakage" true
    (leak Tech.SS < leak Tech.TT && leak Tech.TT < leak Tech.FF)

let test_power_scales_with_sizing () =
  let x_small = Path.min_sizing path11 in
  let b = Bounds.compute path11 in
  let p_small = Power.of_path path11 x_small in
  let p_big = Power.of_path path11 b.Bounds.sizing_tmin in
  Alcotest.(check bool) "bigger sizing -> more power" true
    (p_big.Power.dynamic_uw > p_small.Power.dynamic_uw);
  Alcotest.(check bool) "area consistent" true
    (N.close ~rtol:1e-9 p_big.Power.area (Path.area path11 b.Bounds.sizing_tmin))

(* --- protocol --- *)

let test_protocol_weak_uses_sizing () =
  let b = Bounds.compute path11 in
  let r = Protocol.run ~lib ~tc:(3. *. b.Bounds.tmin) path11 in
  Alcotest.(check bool) "weak domain" true (r.Protocol.domain = Domains.Weak);
  Alcotest.(check bool) "sizing strategy" true (r.Protocol.strategy = Protocol.Sizing_only);
  Alcotest.(check bool) "met" true r.Protocol.met

let test_protocol_hard_meets () =
  let b = Bounds.compute path11 in
  let r = Protocol.run ~lib ~tc:(1.1 *. b.Bounds.tmin) path11 in
  Alcotest.(check bool) "hard domain" true (r.Protocol.domain = Domains.Hard);
  Alcotest.(check bool) "met" true r.Protocol.met

let test_protocol_infeasible_restructures_or_buffers () =
  let b = Bounds.compute heavy_path in
  let tc = 0.97 *. b.Bounds.tmin in
  let r = Protocol.run ~lib ~tc heavy_path in
  Alcotest.(check bool) "infeasible domain" true (r.Protocol.domain = Domains.Infeasible);
  Alcotest.(check bool) "structure was modified" true
    (r.Protocol.buffers_inserted > 0 || r.Protocol.rewrites <> []);
  Alcotest.(check bool)
    (Printf.sprintf "met sub-Tmin constraint (%.1f <= %.1f)" r.Protocol.delay tc)
    true r.Protocol.met

let test_protocol_report_consistency () =
  let b = Bounds.compute path11 in
  let tc = 1.5 *. b.Bounds.tmin in
  let r = Protocol.run ~lib ~tc path11 in
  Alcotest.(check bool) "delay consistent with sizing" true
    (N.close ~rtol:1e-6 r.Protocol.delay (Path.delay r.Protocol.path r.Protocol.sizing));
  Alcotest.(check bool) "met flag consistent" true (r.Protocol.met = (r.Protocol.delay <= tc +. 0.05))

(* --- discrete --- *)

module Discrete = Pops_core.Discrete

let test_snap_up_legal_and_not_smaller () =
  let b = Bounds.compute path11 in
  let snapped = Discrete.snap_up ~lib path11 b.Bounds.sizing_tmin in
  Alcotest.(check bool) "legal" true (Discrete.is_legal ~lib path11 snapped);
  Array.iteri
    (fun i c ->
      if i > 0 then
        Alcotest.(check bool) "never shrinks" true (c >= b.Bounds.sizing_tmin.(i) -. 1e-9))
    snapped

let test_legalize_meets_constraint () =
  let b = Bounds.compute path11 in
  let tc = 1.3 *. b.Bounds.tmin in
  match Sens.size_for_constraint path11 ~tc with
  | Error _ -> Alcotest.fail "feasible"
  | Ok r ->
    let leg = Discrete.legalize ~lib path11 ~tc r.Sens.sizing in
    Alcotest.(check bool) "met on the grid" true leg.Discrete.met;
    Alcotest.(check bool) "legal" true (Discrete.is_legal ~lib path11 leg.Discrete.sizing);
    Alcotest.(check bool) "grid costs some area" true
      (leg.Discrete.area >= r.Sens.area -. 1e-9)

let test_grid_overhead_reasonable () =
  let b = Bounds.compute path11 in
  let tc = 1.4 *. b.Bounds.tmin in
  match Discrete.grid_overhead ~lib path11 ~tc with
  | None -> Alcotest.fail "feasible tc"
  | Some (cont, legal) ->
    let overhead = (legal -. cont) /. cont in
    Alcotest.(check bool)
      (Printf.sprintf "overhead %.1f%% in [0%%, 60%%]" (100. *. overhead))
      true
      (overhead >= -1e-9 && overhead < 0.6)

let test_grid_overhead_infeasible () =
  let b = Bounds.compute path11 in
  Alcotest.(check bool) "None below Tmin" true
    (Discrete.grid_overhead ~lib path11 ~tc:(0.8 *. b.Bounds.tmin) = None)

(* --- margins --- *)

module Margins = Pops_core.Margins

let loaded_path =
  mk ~branch:20. ~c_out:120. [ Gk.Inv; Gk.Nand 2; Gk.Inv; Gk.Nor 2; Gk.Inv ]

let test_yield_zero_sigma () =
  let b = Bounds.compute loaded_path in
  let tc = 1.3 *. b.Bounds.tmin in
  match Sens.size_for_constraint loaded_path ~tc with
  | Error _ -> Alcotest.fail "feasible"
  | Ok r ->
    let y = Margins.timing_yield ~samples:50 ~sigma:0. ~tc loaded_path r.Sens.sizing in
    Alcotest.(check bool) "yield 1 with no uncertainty" true (y.Margins.yield = 1.);
    Alcotest.(check bool) "mean = nominal" true
      (Float.abs (y.Margins.mean_delay -. r.Sens.delay) < 0.5)

let test_yield_drops_with_sigma () =
  let b = Bounds.compute loaded_path in
  let tc = 1.15 *. b.Bounds.tmin in
  match Sens.size_for_constraint loaded_path ~tc with
  | Error _ -> Alcotest.fail "feasible"
  | Ok r ->
    let y_small = Margins.timing_yield ~sigma:0.05 ~tc loaded_path r.Sens.sizing in
    let y_big = Margins.timing_yield ~sigma:0.4 ~tc loaded_path r.Sens.sizing in
    Alcotest.(check bool)
      (Printf.sprintf "yield %.2f (s=0.05) >= %.2f (s=0.4)" y_small.Margins.yield
         y_big.Margins.yield)
      true
      (y_small.Margins.yield >= y_big.Margins.yield);
    Alcotest.(check bool) "big sigma breaks timing sometimes" true
      (y_big.Margins.yield < 1.);
    Alcotest.(check bool) "p95 >= mean" true
      (y_big.Margins.p95_delay >= y_big.Margins.mean_delay)

let test_yield_deterministic () =
  let x = Path.min_sizing loaded_path in
  let y1 = Margins.timing_yield ~sigma:0.2 ~tc:1000. loaded_path x in
  let y2 = Margins.timing_yield ~sigma:0.2 ~tc:1000. loaded_path x in
  Alcotest.(check bool) "same seed, same yield" true (y1.Margins.yield = y2.Margins.yield)

let test_guardband_costs_area () =
  let b = Bounds.compute loaded_path in
  let tc = 1.5 *. b.Bounds.tmin in
  let g0 = Margins.guardband ~margin:0. ~tc loaded_path in
  let g2 = Margins.guardband ~margin:0.2 ~tc loaded_path in
  Alcotest.(check bool) "both feasible" true (g0.Margins.feasible && g2.Margins.feasible);
  Alcotest.(check bool) "margin costs area" true (g2.Margins.area > g0.Margins.area);
  Alcotest.(check bool) "margin speeds nominal" true
    (g2.Margins.nominal_delay < g0.Margins.nominal_delay)

let test_margin_for_yield () =
  let b = Bounds.compute loaded_path in
  let tc = 1.5 *. b.Bounds.tmin in
  match Margins.margin_for_yield ~samples:200 ~sigma:0.15 ~tc loaded_path with
  | None -> Alcotest.fail "a margin must exist at 1.5 Tmin with 15% sigma"
  | Some g ->
    Alcotest.(check bool) "margin within bounds" true
      (g.Margins.margin >= 0. && g.Margins.margin <= 0.5);
    let y = Margins.timing_yield ~samples:200 ~sigma:0.15 ~tc loaded_path g.Margins.sizing in
    Alcotest.(check bool)
      (Printf.sprintf "yield %.2f >= 0.95" y.Margins.yield)
      true (y.Margins.yield >= 0.95)

(* --- repeaters --- *)

module Repeaters = Pops_baselines.Repeaters

let test_wire_validation () =
  match Repeaters.wire_of_length 0. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero length accepted"

let test_unrepeated_quadratic_in_length () =
  let d len =
    Repeaters.unrepeated_delay ~lib (Repeaters.wire_of_length len)
      ~driver_cin:(8. *. tech.Tech.cmin) ~cload:10.
  in
  (* 4x the length: a linear law would give 4x the delay; the wire's
     quadratic term must push it clearly beyond *)
  Alcotest.(check bool)
    (Printf.sprintf "superlinear growth (%.1fx for 4x length)" (d 16. /. d 4.))
    true
    (d 16. /. d 4. > 4.5)

let test_repeaters_beat_long_wire () =
  let wire = Repeaters.wire_of_length 8. in
  let un =
    Repeaters.unrepeated_delay ~lib wire ~driver_cin:(32. *. tech.Tech.cmin)
      ~cload:10.
  in
  let sol = Repeaters.optimize ~lib wire ~cload:10. in
  Alcotest.(check bool)
    (Printf.sprintf "repeated %.0f < unrepeated %.0f ps" sol.Repeaters.delay un)
    true (sol.Repeaters.delay < un);
  Alcotest.(check bool) "uses several repeaters" true (sol.Repeaters.segments > 2)

let test_repeater_count_scales_with_length () =
  let n len = (Repeaters.optimize ~lib (Repeaters.wire_of_length len) ~cload:10.).Repeaters.segments in
  Alcotest.(check bool) "monotone in length" true (n 2. <= n 8. && n 8. <= n 20.);
  (* optimal count ~ proportional to length: quadrupling the wire should
     much more than double the count *)
  Alcotest.(check bool) "roughly linear scaling" true (n 8. >= 2 * n 2.)

let test_repeater_optimum_matches_closed_form () =
  (* n* = sqrt(0.4 R_w C_w / (R_inv(cmin) * cmin-ish)): check within 2x *)
  let wire = Repeaters.wire_of_length 10. in
  let sol = Repeaters.optimize ~lib wire ~cload:10. in
  let inv = Pops_cell.Library.inverter lib in
  let tech_ = Pops_cell.Library.tech lib in
  let s_avg = 0.5 *. (inv.Pops_cell.Cell.s_hl +. inv.Pops_cell.Cell.s_lh) in
  let k_drv = 1.1 *. s_avg *. tech_.Tech.tau /. 2. in
  (* per-unit-size inverter: R_inv * C_inv = k_drv * (1 + par_ratio) *)
  let rc_inv = k_drv *. (1. +. inv.Pops_cell.Cell.par_ratio) in
  let n_star = sqrt (0.4 *. wire.Repeaters.r_total *. wire.Repeaters.c_total /. rc_inv) in
  let ratio = float_of_int sol.Repeaters.segments /. n_star in
  Alcotest.(check bool)
    (Printf.sprintf "n=%d vs closed form %.1f (ratio %.2f)" sol.Repeaters.segments n_star ratio)
    true
    (ratio > 0.5 && ratio < 2.)

(* --- printers and odds --- *)

let test_protocol_pp_smoke () =
  let b = Bounds.compute path5 in
  let r = Protocol.run ~lib ~tc:(1.4 *. b.Bounds.tmin) path5 in
  let s = Format.asprintf "%a" Protocol.pp_report r in
  Alcotest.(check bool) "mentions strategy" true (String.length s > 40)

let test_guardband_infeasible_reported () =
  let b = Bounds.compute path5 in
  (* margin so large the target dips below Tmin *)
  let g = Margins.guardband ~margin:10. ~tc:(1.05 *. b.Bounds.tmin) path5 in
  Alcotest.(check bool) "reported infeasible" false g.Margins.feasible;
  Alcotest.(check bool) "falls back to the fastest sizing" true
    (Float.abs (g.Margins.nominal_delay -. b.Bounds.tmin) /. b.Bounds.tmin < 0.02)

let test_tradeoff_crossover_none_on_identical () =
  let c = Tradeoff.curve ~points:8 path5 in
  (* identical fronts never show a strict win *)
  Alcotest.(check bool) "no crossover against itself" true
    (match Tradeoff.crossover_delay c c with None -> true | Some _ -> false)

let test_domains_to_string_unique () =
  let names =
    List.map Domains.to_string
      [ Domains.Weak; Domains.Medium; Domains.Hard; Domains.Infeasible ]
  in
  Alcotest.(check int) "distinct" 4 (List.length (List.sort_uniq compare names))

(* --- qcheck properties --- *)

let kind_pool = [| Gk.Inv; Gk.Nand 2; Gk.Nand 3; Gk.Nor 2; Gk.Nor 3; Gk.Aoi21 |]

let random_path_gen =
  QCheck.Gen.(
    let* len = int_range 3 10 in
    let* kinds = list_size (return len) (oneofl (Array.to_list kind_pool)) in
    let* branch = float_range 0. 20. in
    let* c_out = float_range 20. 300. in
    return (mk ~branch ~c_out kinds))

let random_path_arb = QCheck.make ~print:(Format.asprintf "%a" Path.pp) random_path_gen

let prop_tmin_below_tmax =
  QCheck.Test.make ~name:"tmin <= tmax on random paths" ~count:60 random_path_arb
    (fun p ->
      let b = Bounds.compute p in
      b.Bounds.tmin <= b.Bounds.tmax +. 1e-6)

let prop_tmin_stationary =
  QCheck.Test.make ~name:"tmin sizing is stationary" ~count:40 random_path_arb
    (fun p ->
      let b = Bounds.compute p in
      Bounds.verify_stationary ~tol:2e-2 ~beta:b.Bounds.beta_tmin p
        b.Bounds.sizing_tmin)

let prop_constraint_met =
  QCheck.Test.make ~name:"size_for_constraint meets feasible tc" ~count:40
    (QCheck.pair random_path_arb (QCheck.float_range 1.05 4.))
    (fun (p, ratio) ->
      let b = Bounds.compute p in
      let tc = ratio *. b.Bounds.tmin in
      match Sens.size_for_constraint p ~tc with
      | Ok r -> r.Sens.delay <= tc +. 0.1
      | Error _ -> false)

let prop_protocol_always_met_when_feasible =
  QCheck.Test.make ~name:"protocol meets every feasible constraint" ~count:30
    (QCheck.pair random_path_arb (QCheck.float_range 1.02 3.5))
    (fun (p, ratio) ->
      let b = Bounds.compute p in
      let tc = ratio *. b.Bounds.tmin in
      let r = Protocol.run ~lib ~tc p in
      r.Protocol.met)

(* --- fallback ladder: watchdogs and graceful degradation --- *)

module Fault = Pops_check.Fault
module Diag = Pops_robust.Diag

let has_code code diags = List.exists (fun d -> d.Diag.code = code) diags

let test_ladder_healthy_first_rung () =
  (* faults disabled: the ladder never descends, repeats bit for bit and
     its outcome is Exact *)
  Fault.clear ();
  let r = Sens.solve path11 in
  Alcotest.(check bool) "accelerated rung" true (r.Sens.fallback = Sens.Accelerated);
  Alcotest.(check bool) "no warnings" true
    (List.for_all (fun d -> d.Diag.severity = Diag.Info) r.Sens.diags);
  Alcotest.(check bool) "bit-identical on repeat" true
    ((Sens.solve path11).Sens.sizing = r.Sens.sizing);
  match Pops_robust.Outcome.make r.Sens.sizing r.Sens.diags with
  | Pops_robust.Outcome.Exact _ -> ()
  | _ -> Alcotest.fail "a healthy solve must be Exact"

let forced_rung spec =
  Fault.with_spec spec (fun () -> Sens.solve path11)

let check_near_healthy (r : Sens.report) =
  (* intermediate rungs converge to the same fixed point *)
  let healthy = (Sens.solve path11).Sens.sizing in
  Array.iteri
    (fun i x ->
      Alcotest.(check bool) "close to healthy solve" true
        (Float.abs (x -. healthy.(i)) <= 1e-3 *. healthy.(i)))
    r.Sens.sizing

let test_ladder_forced_plain () =
  let r = forced_rung "solver.diverge.accel" in
  Alcotest.(check string) "rung" "plain" (Sens.rung_name r.Sens.fallback);
  Alcotest.(check bool) "divergence reported" true
    (has_code Diag.Solver_divergence r.Sens.diags);
  Alcotest.(check bool) "fallback reported" true
    (has_code Diag.Solver_fallback r.Sens.diags);
  check_near_healthy r

let test_ladder_forced_damped () =
  let r = forced_rung "solver.diverge.accel,solver.diverge.plain" in
  Alcotest.(check string) "rung" "damped" (Sens.rung_name r.Sens.fallback);
  check_near_healthy r

let test_ladder_forced_tmax_safe () =
  let b = Bounds.compute path11 in
  let r = forced_rung "solver.diverge" in
  Alcotest.(check string) "rung" "tmax-safe" (Sens.rung_name r.Sens.fallback);
  let d = Path.delay_worst path11 r.Sens.sizing in
  Alcotest.(check bool) "delay within the Tmax bound" true
    (d <= b.Bounds.tmax *. (1. +. 1e-9))

let test_ladder_nan_poisoning () =
  let r = forced_rung "solver.nan.accel" in
  Alcotest.(check string) "rung" "plain" (Sens.rung_name r.Sens.fallback);
  Alcotest.(check bool) "non-finite iterate reported" true
    (has_code Diag.Solver_nonfinite r.Sens.diags);
  Alcotest.(check bool) "injection recorded" true
    (has_code Diag.Fault_injected r.Sens.diags);
  check_near_healthy r

let test_ladder_degraded_outcome () =
  let r = forced_rung "solver.diverge.accel" in
  match Pops_robust.Outcome.make r.Sens.sizing r.Sens.diags with
  | Pops_robust.Outcome.Degraded (x, diags) ->
    Alcotest.(check bool) "diags attached" true (diags <> []);
    Alcotest.(check bool) "sizing finite" true
      (Array.for_all Float.is_finite x)
  | Pops_robust.Outcome.Exact _ -> Alcotest.fail "a forced descent must degrade"
  | Pops_robust.Outcome.Failed _ -> Alcotest.fail "a forced descent must still size"

let test_ladder_budget_keeps_iterate () =
  let budget = Pops_robust.Budget.create ~sweeps:2 () in
  let r = Sens.solve ~budget path11 in
  Alcotest.(check bool) "sizing finite under a starved budget" true
    (Array.for_all Float.is_finite r.Sens.sizing);
  Alcotest.(check bool) "budget trip reported" true
    (has_code Diag.Budget_exceeded r.Sens.diags)

(* The buffer greedy's duality screen trusts only clean solves.  On a
   clean run it fires and the greedy still equals the unscreened oracle
   (test/buffers_oracle.ml), diagnostics included; with every Newton
   solve forced to diverge, no bound is trusted, nothing is screened and
   the degraded result and its diagnostics are again the oracle's. *)
let test_screen_faults_and_diagnostics () =
  let tc = 1.3 *. (Bounds.compute heavy_path).Bounds.tmin in
  let objective = `Area_at tc in
  let screened () = Buffers.insert_global ~objective ~lib heavy_path in
  let oracle () = Buffers_oracle.insert_global ~objective ~lib heavy_path in
  let run f =
    let t0 = Buffers.trials_evaluated () and s0 = Buffers.trials_screened () in
    let r, diags = Pops_robust.Watch.collect f in
    (r, List.map Diag.one_line diags, Buffers.trials_evaluated () - t0,
     Buffers.trials_screened () - s0)
  in
  let check_same what r o =
    match Buffers_oracle.diff r o with
    | None -> ()
    | Some field -> Alcotest.failf "%s: differs from the oracle in %s" what field
  in
  let r, diags, trials, screens = run screened in
  let o, diags_o, _, _ = run oracle in
  Alcotest.(check bool) "trials weighed" true (trials > 0);
  Alcotest.(check bool) "the screen fires on a clean run" true (screens > 0);
  check_same "clean" r o;
  Alcotest.(check (list string)) "clean: the oracle's diagnostics" diags_o diags;
  let spec = "solver.diverge.accel" in
  let r, diags, trials, screens = Fault.with_spec spec (fun () -> run screened) in
  let o, diags_o, _, _ = Fault.with_spec spec (fun () -> run oracle) in
  Alcotest.(check bool) "faulted: trials weighed" true (trials > 0);
  Alcotest.(check int) "faulted: the screen fires on nothing" 0 screens;
  check_same "faulted" r o;
  Alcotest.(check bool) "faulted: divergence reported" true (diags <> []);
  Alcotest.(check (list string)) "faulted: the oracle's diagnostics" diags_o diags

(* an ambient POPS_FAULT must not perturb the deterministic cases above;
   the ladder tests arm their own specs through [Fault.with_spec] *)
let () = Fault.clear ()

let () =
  Alcotest.run "pops_core"
    [
      ( "bounds",
        [
          Alcotest.test_case "tmin < tmax" `Quick test_bounds_order;
          Alcotest.test_case "tmin stationary" `Quick test_tmin_stationary;
          Alcotest.test_case "tmin beats random probes" `Quick test_tmin_beats_random_probes;
          Alcotest.test_case "trace converges (Fig.1)" `Quick test_tmin_trace_monotone_convergence;
          Alcotest.test_case "tmin independent of start" `Quick test_tmin_independent_of_start;
          Alcotest.test_case "feasibility" `Quick test_feasibility;
          qtest prop_tmin_below_tmax;
          qtest prop_tmin_stationary;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "rejects positive a" `Quick test_solve_rejects_positive_a;
          Alcotest.test_case "delay monotone in a" `Quick test_delay_monotone_in_a;
          Alcotest.test_case "area monotone in a" `Quick test_area_monotone_in_a;
          Alcotest.test_case "meets tc" `Quick test_size_for_constraint_meets_tc;
          Alcotest.test_case "infeasible below tmin" `Quick test_size_for_constraint_infeasible;
          Alcotest.test_case "loose tc -> min area" `Quick test_size_for_constraint_loose;
          Alcotest.test_case "frozen stages kept" `Quick test_frozen_stages_kept;
          Alcotest.test_case "beats sutherland area" `Quick test_sutherland_vs_sensitivity_area;
          qtest prop_constraint_met;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "healthy = first rung, bit-identical" `Quick
            test_ladder_healthy_first_rung;
          Alcotest.test_case "forced plain" `Quick test_ladder_forced_plain;
          Alcotest.test_case "forced damped" `Quick test_ladder_forced_damped;
          Alcotest.test_case "forced tmax-safe" `Quick test_ladder_forced_tmax_safe;
          Alcotest.test_case "nan poisoning" `Quick test_ladder_nan_poisoning;
          Alcotest.test_case "degraded outcome" `Quick test_ladder_degraded_outcome;
          Alcotest.test_case "starved budget keeps iterate" `Quick
            test_ladder_budget_keeps_iterate;
          Alcotest.test_case "buffer screen under faults" `Quick
            test_screen_faults_and_diagnostics;
        ] );
      ( "buffers",
        [
          Alcotest.test_case "flimit ordering (Table 2)" `Quick test_flimit_ordering;
          Alcotest.test_case "flimit plausible" `Quick test_flimit_finite_and_plausible;
          Alcotest.test_case "crossover behaviour" `Quick test_buffered_beats_direct_beyond_limit;
          Alcotest.test_case "path fanouts" `Quick test_path_fanouts;
          Alcotest.test_case "critical nodes found" `Quick test_critical_nodes_found;
          Alcotest.test_case "global insertion improves tmin" `Quick test_global_insertion_improves_tmin;
          Alcotest.test_case "shield dilutes branch" `Quick test_shield_stage_dilutes;
          Alcotest.test_case "shield rejects small branch" `Quick test_shield_stage_rejects_small_branch;
          Alcotest.test_case "global insertion never worse" `Quick test_global_insertion_never_worse;
          Alcotest.test_case "global insertion from a base answer" `Quick
            test_global_insertion_from_base;
          Alcotest.test_case "local insertion keeps sizes" `Quick test_local_insertion_keeps_original_sizes;
        ] );
      ( "restructure",
        [
          Alcotest.test_case "candidates are NORs" `Quick test_candidates_are_nors;
          Alcotest.test_case "apply structure" `Quick test_apply_structure;
          Alcotest.test_case "absorbs feeding inverter" `Quick test_apply_absorbs_feeding_inverter;
          Alcotest.test_case "no candidates without NOR" `Quick test_apply_none_without_nor;
          Alcotest.test_case "beats buffers under hard tc (Table 4)" `Quick
            test_restructure_area_beats_buffers_hard;
        ] );
      ( "domains",
        [
          Alcotest.test_case "classify" `Quick test_classify;
          Alcotest.test_case "representative tc" `Quick test_representative_tc;
        ] );
      ( "tradeoff",
        [
          Alcotest.test_case "curve monotone" `Quick test_curve_monotone;
          Alcotest.test_case "curve endpoints" `Quick test_curve_endpoints;
        ] );
      ( "power",
        [
          Alcotest.test_case "scales with sizing" `Quick test_power_scales_with_sizing;
          Alcotest.test_case "leakage vs area and corner" `Quick test_leakage_tracks_area_and_corner;
        ] );
      ( "repeaters",
        [
          Alcotest.test_case "wire validation" `Quick test_wire_validation;
          Alcotest.test_case "quadratic wire delay" `Quick test_unrepeated_quadratic_in_length;
          Alcotest.test_case "repeaters beat long wire" `Quick test_repeaters_beat_long_wire;
          Alcotest.test_case "count scales with length" `Quick test_repeater_count_scales_with_length;
          Alcotest.test_case "matches closed form" `Quick test_repeater_optimum_matches_closed_form;
        ] );
      ( "margins",
        [
          Alcotest.test_case "zero sigma" `Quick test_yield_zero_sigma;
          Alcotest.test_case "yield drops with sigma" `Quick test_yield_drops_with_sigma;
          Alcotest.test_case "deterministic" `Quick test_yield_deterministic;
          Alcotest.test_case "guardband costs area" `Quick test_guardband_costs_area;
          Alcotest.test_case "margin for yield" `Quick test_margin_for_yield;
        ] );
      ( "discrete",
        [
          Alcotest.test_case "snap up legal" `Quick test_snap_up_legal_and_not_smaller;
          Alcotest.test_case "legalize meets tc" `Quick test_legalize_meets_constraint;
          Alcotest.test_case "grid overhead bounded" `Quick test_grid_overhead_reasonable;
          Alcotest.test_case "grid overhead infeasible" `Quick test_grid_overhead_infeasible;
        ] );
      ( "misc",
        [
          Alcotest.test_case "protocol pp" `Quick test_protocol_pp_smoke;
          Alcotest.test_case "guardband infeasible" `Quick test_guardband_infeasible_reported;
          Alcotest.test_case "crossover vs self" `Quick test_tradeoff_crossover_none_on_identical;
          Alcotest.test_case "domain names" `Quick test_domains_to_string_unique;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "weak uses sizing" `Quick test_protocol_weak_uses_sizing;
          Alcotest.test_case "hard meets" `Quick test_protocol_hard_meets;
          Alcotest.test_case "infeasible modifies structure" `Quick
            test_protocol_infeasible_restructures_or_buffers;
          Alcotest.test_case "report consistency" `Quick test_protocol_report_consistency;
          qtest prop_protocol_always_met_when_feasible;
        ] );
    ]
