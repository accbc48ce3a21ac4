(* Equivalence suite for the compiled path kernel (PR 3): the
   allocation-free primitives in Pops_delay.Path and the kernel-backed
   solvers in Pops_core.Sensitivity must agree BIT FOR BIT with
   straightforward reference implementations written against the public
   boxed API (Model.stage_delay, Path.stage_coeffs).  Any divergence —
   a reordered operand, a lost clamp, a polarity mix-up in the
   precomputed tables — fails an exact comparison here, not a tolerance
   check.  The Newton rung is additionally pinned to the plain
   Gauss-Seidel fixed point at convergence. *)

module Tech = Pops_process.Tech
module Gk = Pops_cell.Gate_kind
module Cell = Pops_cell.Cell
module Library = Pops_cell.Library
module Edge = Pops_delay.Edge
module Model = Pops_delay.Model
module Path = Pops_delay.Path
module Sens = Pops_core.Sensitivity
module Bounds = Pops_core.Bounds
module Profiles = Pops_circuits.Profiles
module Paths = Pops_sta.Paths
module N = Pops_util.Numerics
module Rng = Pops_util.Rng

let tech = Tech.cmos025
let lib = Library.make tech

let check_bits msg expected actual =
  if Int64.bits_of_float expected <> Int64.bits_of_float actual then
    Alcotest.failf "%s: expected %h, got %h" msg expected actual

let check_bits_arr msg expected actual =
  Alcotest.(check int) (msg ^ ": length") (Array.length expected) (Array.length actual);
  Array.iteri
    (fun i e -> check_bits (Printf.sprintf "%s [%d]" msg i) e actual.(i))
    expected

let profile_path name =
  let p = Option.get (Profiles.find name) in
  let nl, spine = Profiles.circuit tech p in
  (Paths.extract ~lib nl spine).Paths.path

(* every benchmark circuit, each under all four model-term combinations
   and both input polarities *)
let all_opts =
  [
    Model.{ with_slope = true; with_coupling = true };
    Model.{ with_slope = true; with_coupling = false };
    Model.{ with_slope = false; with_coupling = true };
    Model.{ with_slope = false; with_coupling = false };
  ]

let variants_of base =
  List.concat_map
    (fun opts ->
      List.map
        (fun input_edge ->
          Path.make ~opts ~input_slope:base.Path.input_slope ~input_edge
            ~drive_cin:base.Path.drive_cin ~tech:base.Path.tech
            ~c_out:base.Path.c_out
            (Array.to_list base.Path.stages))
        [ Edge.Rising; Edge.Falling ])
    all_opts

(* a deterministic batch of sizing vectors spanning the clamp range,
   including out-of-range entries the clamp must catch *)
let sizings path =
  let n = Path.length path in
  let rng = Rng.create 0x5EEDL in
  let random _ =
    Array.init n (fun i ->
        if i = 0 then path.Path.drive_cin
        else
          let cell = path.Path.stages.(i).Path.cell in
          Rng.log_range rng (0.1 *. Cell.min_cin cell) (10000. *. Cell.min_cin cell))
  in
  Path.min_sizing path
  :: Array.map (fun v -> v *. 3.) (Path.min_sizing path)
  :: List.init 4 random

(* --- reference implementations (boxed public API) ------------------- *)

let ref_clamp path x =
  Array.mapi
    (fun i xi ->
      if i = 0 then path.Path.drive_cin
      else
        let lo = Cell.min_cin path.Path.stages.(i).Path.cell in
        let hi = 4096. *. lo in
        Float.min hi (Float.max lo xi))
    x

(* eq. (1) folded along the path exactly as the pre-kernel code did:
   clamp, per-stage loads, Model.stage_delay, left-to-right sum *)
let ref_delay path x =
  let n = Path.length path in
  let y = ref_clamp path x in
  let total = ref 0. and tau_in = ref path.Path.input_slope in
  for i = 0 to n - 1 do
    let cell = path.Path.stages.(i).Path.cell in
    let next = if i = n - 1 then path.Path.c_out else y.(i + 1) in
    let cload = Cell.cpar cell ~cin:y.(i) +. path.Path.stages.(i).Path.branch +. next in
    let d, tau_out =
      Model.stage_delay ~opts:path.Path.opts cell ~edge_out:path.Path.edges.(i)
        ~tau_in:!tau_in ~cin:y.(i) ~cload
    in
    total := !total +. d;
    tau_in := tau_out
  done;
  !total

(* the analytic gradient written naively from the per-stage coefficient
   records (squares as explicit multiplies, matching the production
   arithmetic shape) *)
let ref_gradient path x =
  let n = Path.length path in
  let y = ref_clamp path x in
  let tau = path.Path.tech.Tech.tau in
  let coeff j =
    let c = Path.stage_coeffs path j in
    let v = if path.Path.opts.Model.with_slope then c.Path.v else 0. in
    (c.Path.s, v, c.Path.m, c.Path.p)
  in
  let branch j = path.Path.stages.(j).Path.branch in
  let g = Array.make n 0. in
  for j = 1 to n - 1 do
    let s_prev, _, m_prev, p_prev = coeff (j - 1) in
    let s_j, v_j, m_j, p_j = coeff j in
    let xm1 = y.(j - 1) and xj = y.(j) in
    let xnext = if j + 1 < n then y.(j + 1) else path.Path.c_out in
    let l_prev = (p_prev *. xm1) +. branch (j - 1) +. xj in
    let cm_prev = m_prev *. xm1 in
    let dp = cm_prev +. l_prev in
    let k1 = 1. +. (2. *. cm_prev *. cm_prev /. (dp *. dp)) in
    let upstream = s_prev *. tau /. (2. *. xm1) *. (k1 +. v_j) in
    let k_j = branch j +. xnext in
    let l_j = (p_j *. xj) +. k_j in
    let cm_j = m_j *. xj in
    let dj = cm_j +. l_j in
    let v_next = if j + 1 < n then let _, v, _, _ = coeff (j + 1) in v else 0. in
    let own =
      s_j *. tau *. k_j /. 2.
      *. (((1. +. v_next) /. (xj *. xj)) +. (2. *. m_j *. m_j /. (dj *. dj)))
    in
    g.(j) <- upstream -. own
  done;
  g

(* one backward link-equation sweep from the coefficient records — the
   reference for Sensitivity's kernel sweep (single polarity) *)
let ref_sweep path ~a x =
  let n = Path.length path in
  let tau = path.Path.tech.Tech.tau in
  for j = n - 1 downto 1 do
    let cj = Path.stage_coeffs path j and cp = Path.stage_coeffs path (j - 1) in
    let v_of (c : Path.coeffs) =
      if path.Path.opts.Model.with_slope then c.Path.v else 0.
    in
    let next_j = if j = n - 1 then path.Path.c_out else x.(j + 1) in
    let k_j = path.Path.stages.(j).Path.branch +. next_j in
    let l_prev =
      (cp.Path.p *. x.(j - 1)) +. path.Path.stages.(j - 1).Path.branch +. x.(j)
    in
    let cm_prev = cp.Path.m *. x.(j - 1) in
    let dp = cm_prev +. l_prev in
    let k1 = 1. +. (2. *. cm_prev *. cm_prev /. (dp *. dp)) in
    let upstream = cp.Path.s *. tau /. (2. *. x.(j - 1)) *. (k1 +. v_of cj) in
    let l_j = (cj.Path.p *. x.(j)) +. k_j in
    let cm_j = cj.Path.m *. x.(j) in
    let dj = cm_j +. l_j in
    let e2 = cj.Path.s *. tau *. k_j *. cj.Path.m *. cj.Path.m /. (dj *. dj) in
    let v_next =
      if j + 1 < n then v_of (Path.stage_coeffs path (j + 1)) else 0.
    in
    let num = 0. +. (1. *. cj.Path.s *. (1. +. v_next)) in
    let den = 0. +. (1. *. (upstream -. e2)) in
    let cell = path.Path.stages.(j).Path.cell in
    let lo = Cell.min_cin cell in
    let hi = 4096. *. lo in
    let denom = den -. (a *. Cell.area cell ~cin:1.) in
    x.(j) <-
      (if denom <= 1e-12 then hi
       else
         let x2 = tau *. k_j *. num /. (2. *. denom) in
         Float.min hi (Float.max lo (sqrt x2)))
  done

let ref_solve ?(a = 0.) path =
  let step x =
    let y = ref_clamp path x in
    ref_sweep path ~a y;
    y
  in
  Numeric_oracle.fixed_point ~tol:1e-6 ~max_iter:300 ~step ~distance:N.distance_inf
    (Path.min_sizing path)

(* --- the bitwise equivalence tests ---------------------------------- *)

let delay_circuits = List.map (fun p -> p.Profiles.name) Profiles.all
let solver_circuits = [ "fpd"; "c880"; "Adder16" ]

let test_delay_bitwise () =
  List.iter
    (fun name ->
      let base = profile_path name in
      List.iter
        (fun path ->
          List.iter
            (fun x ->
              let tag = Printf.sprintf "%s delay" name in
              check_bits tag (ref_delay path x) (Path.delay path x);
              let flipped =
                Path.with_input_edge path (Edge.flip path.Path.input_edge)
              in
              let d_own = ref_delay path x and d_flip = ref_delay flipped x in
              check_bits (name ^ " delay_worst")
                (Float.max d_own d_flip)
                (Path.delay_worst path x);
              let sc = Path.scratch () in
              Path.delay_both path sc x;
              check_bits (name ^ " delay_both own") d_own sc.Path.own;
              check_bits (name ^ " delay_both flip") d_flip sc.Path.flip)
            (sizings path))
        (variants_of base))
    delay_circuits

let test_flip_is_fresh_make () =
  List.iter
    (fun name ->
      let base = profile_path name in
      List.iter
        (fun path ->
          let flip_edge = Edge.flip path.Path.input_edge in
          let flipped = Path.with_input_edge path flip_edge in
          let fresh =
            Path.make ~opts:path.Path.opts ~input_slope:path.Path.input_slope
              ~input_edge:flip_edge ~drive_cin:path.Path.drive_cin
              ~tech:path.Path.tech ~c_out:path.Path.c_out
              (Array.to_list path.Path.stages)
          in
          Alcotest.(check bool)
            (name ^ ": flipped edges match fresh construction") true
            (flipped.Path.edges = fresh.Path.edges);
          List.iter
            (fun x ->
              check_bits (name ^ " flip delay")
                (Path.delay fresh x) (Path.delay flipped x);
              check_bits_arr (name ^ " flip gradient")
                (Path.gradient fresh x) (Path.gradient flipped x))
            (sizings path);
          (* flipping twice restores the original tables *)
          let back = Path.with_input_edge flipped path.Path.input_edge in
          List.iter
            (fun x ->
              check_bits (name ^ " double flip delay")
                (Path.delay path x) (Path.delay back x))
            (sizings path))
        (variants_of base))
    [ "fpd"; "c880" ]

let test_clamp_bitwise () =
  List.iter
    (fun name ->
      let path = profile_path name in
      List.iter
        (fun x ->
          let expected = ref_clamp path x in
          check_bits_arr (name ^ " clamp_sizing") expected (Path.clamp_sizing path x);
          let dst = Array.make (Path.length path) Float.nan in
          Path.clamp_into path x dst;
          check_bits_arr (name ^ " clamp_into") expected dst;
          (* in place *)
          let y = Array.copy x in
          Path.clamp_into path y y;
          check_bits_arr (name ^ " clamp_into in place") expected y)
        (sizings path))
    delay_circuits

let test_gradient_bitwise () =
  List.iter
    (fun name ->
      let base = profile_path name in
      List.iter
        (fun path ->
          List.iter
            (fun x ->
              let expected = ref_gradient path x in
              check_bits_arr (name ^ " gradient") expected (Path.gradient path x);
              let g = Array.make (Path.length path) Float.nan in
              Path.gradient_into path x g;
              check_bits_arr (name ^ " gradient_into") expected g)
            (sizings path))
        (variants_of base))
    delay_circuits

let test_solve_plain_bitwise () =
  List.iter
    (fun name ->
      let path = profile_path name in
      List.iter
        (fun a ->
          let x_ref, iters_ref = ref_solve ~a path in
          let r = Sens.solve ~accel:false ~a ~beta:1. ~tol:1e-6 path in
          check_bits_arr
            (Printf.sprintf "%s solve a=%g" name a)
            x_ref r.Sens.sizing;
          Alcotest.(check int)
            (Printf.sprintf "%s solve a=%g iterations" name a)
            iters_ref r.Sens.stats.Sens.iterations)
        [ 0.; -0.01; -1. ])
    solver_circuits

let test_accel_agrees_when_converged () =
  (* fpd converges well inside max_iter both ways; the Newton rung must
     satisfy the same residual contract and land on the same fixed point
     to solver tolerance *)
  let path = profile_path "fpd" in
  let solve accel =
    let r = Sens.solve ~accel ~beta:1. ~tol:1e-6 path in
    (r.Sens.sizing, r.Sens.stats)
  in
  let x_plain, st_plain = solve false in
  let x_acc, st_acc = solve true in
  Alcotest.(check bool) "both converged" true
    (st_plain.Sens.iterations < 300 && st_acc.Sens.iterations < 300);
  Alcotest.(check bool) "acceleration does not slow convergence" true
    (st_acc.Sens.iterations <= st_plain.Sens.iterations);
  Alcotest.(check bool) "residual contract" true (st_acc.Sens.residual < 1e-6);
  Alcotest.(check bool) "same fixed point" true
    (N.distance_inf x_plain x_acc < 1e-4);
  check_bits "same delay to model resolution"
    (Float.round (Path.delay_worst path x_plain *. 1e6))
    (Float.round (Path.delay_worst path x_acc *. 1e6))

let test_solver_entry_points_unaffected () =
  (* the higher-level entry points start on the Newton rung by default;
     their results must stay interchangeable with the plain ones *)
  let path = profile_path "c880" in
  let x_acc = (Sens.solve path).Sens.sizing in
  let x_plain = (Sens.solve ~accel:false path).Sens.sizing in
  let d_acc = Path.delay_worst path x_acc
  and d_plain = Path.delay_worst path x_plain in
  Alcotest.(check bool) "accelerated at least as optimal" true
    (d_acc <= d_plain +. 1e-3)

let test_bisect_roots () =
  let x = N.bisect ~tol:1e-14 ~f:cos ~lo:0. ~hi:3. () in
  Alcotest.(check bool) "cos root" true (Float.abs (x -. (Float.pi /. 2.)) < 1e-10);
  let x = N.bisect ~tol:1e-14 ~f:(fun x -> (2. *. x) -. 3.) ~lo:0. ~hi:10. () in
  Alcotest.(check bool) "linear root" true (Float.abs (x -. 1.5) < 1e-10);
  (* stiff curvature: regula falsi's stuck-endpoint mode; the bisection
     safeguard must keep the classic convergence *)
  let x = N.bisect ~tol:1e-12 ~f:(fun x -> (x ** 9.) -. 0.5) ~lo:0. ~hi:1. () in
  Alcotest.(check bool) "stiff root" true
    (Float.abs (x -. (0.5 ** (1. /. 9.))) < 1e-9);
  (* step discontinuity: no root of f, converges to the jump *)
  let x = N.bisect ~tol:1e-9 ~f:(fun x -> if x < 1. then -1. else 1.) ~lo:0. ~hi:2. () in
  Alcotest.(check bool) "discontinuity located" true (Float.abs (x -. 1.) < 1e-6);
  (* swapped bounds *)
  let x = N.bisect ~tol:1e-14 ~f:cos ~lo:3. ~hi:0. () in
  Alcotest.(check bool) "swapped bracket" true
    (Float.abs (x -. (Float.pi /. 2.)) < 1e-10);
  Alcotest.check_raises "no bracket"
    (N.No_bracket "bisect: f(1)=1, f(2)=4")
    (fun () -> ignore (N.bisect ~f:(fun x -> x *. x) ~lo:1. ~hi:2. ()))

(* the nested search the KKT sizer replaced, kept as its oracle
   (test/sizing_oracle.ml): one regula falsi on [a] for a fixed weight *)
let test_bisect_for_beta () =
  let path = profile_path "fpd" in
  let b = Bounds.compute path in
  let tc = 1.2 *. b.Bounds.tmin in
  (match Sizing_oracle.bisect_for_beta ~beta:0.5 path ~tc with
  | None -> Alcotest.fail "feasible constraint returned None"
  | Some r ->
    Alcotest.(check bool) "meets constraint" true (r.Sens.delay <= tc);
    Alcotest.(check bool) "close to constraint (minimum area)" true
      (r.Sens.delay >= tc *. 0.99);
    Alcotest.(check bool) "cheaper than the a=0 sizing" true
      (r.Sens.area <= Path.area path (Sens.solve path).Sens.sizing));
  (* infeasible for this weighting *)
  Alcotest.(check bool) "infeasible returns None" true
    (Sizing_oracle.bisect_for_beta ~beta:0.5 path ~tc:(0.5 *. b.Bounds.tmin) = None)

(* kernel passes [f] performs, with its result *)
let passes f =
  let s0 = Sens.sweeps_performed () in
  let r = f () in
  (r, Sens.sweeps_performed () - s0)

(* The KKT sizer on the 11 profile paths at seven constraints: each call
   within its pass cap, every row as good as the nested search it
   replaced (test/sizing_oracle.ml), at least 5x cheaper in all, and the
   tangent-steered search within its gates over the 77 rows: at most 7
   solves a row on average and 7,149 passes in all (half the 14,298 of
   the regula falsi search before it; it measures 6.4 and 5,929).  The
   costliest calls take 62 passes (minimum_delay, c6288) and 92 (c6288
   at 2 Tmin); the caps leave ~1.5x headroom. *)
let test_kkt_profile_rows () =
  let total = ref 0 and total_oracle = ref 0 and solves = ref 0 and rows = ref 0 in
  List.iter
    (fun (p : Profiles.t) ->
      let name = p.Profiles.name in
      let path = profile_path name in
      let (tmin, _, _), md = passes (fun () -> Sens.minimum_delay path) in
      let tmin_o, _, _ = Sizing_oracle.minimum_delay path in
      if md > 100 then Alcotest.failf "%s: minimum_delay took %d passes" name md;
      if tmin > tmin_o +. 0.01 then
        Alcotest.failf "%s: tmin %.4f above the oracle's %.4f" name tmin tmin_o;
      List.iter
        (fun ratio ->
          let tc = ratio *. tmin_o in
          let v0 = Sens.solves_performed () in
          let r, n = passes (fun () -> Sens.size_for_constraint path ~tc) in
          solves := !solves + Sens.solves_performed () - v0;
          incr rows;
          let o, n_o = passes (fun () -> Sizing_oracle.size_for_constraint path ~tc) in
          total := !total + n;
          total_oracle := !total_oracle + n_o;
          if n > 140 then
            Alcotest.failf "%s at %.2f Tmin: %d passes" name ratio n;
          match (r, o) with
          | Ok r, Ok o ->
            if r.Sens.delay > tc then
              Alcotest.failf "%s at %.2f Tmin: delay %.4f over tc %.4f" name ratio
                r.Sens.delay tc;
            if r.Sens.area > o.Sens.area *. 1.002 then
              Alcotest.failf "%s at %.2f Tmin: area %.3f over the oracle's %.3f" name
                ratio r.Sens.area o.Sens.area
          | _ -> Alcotest.failf "%s at %.2f Tmin: feasibility verdicts differ" name ratio)
        [ 1.02; 1.05; 1.1; 1.2; 1.5; 2.0; 2.5 ])
    Profiles.all;
  if 5 * !total > !total_oracle then
    Alcotest.failf "%d passes in all, the oracle %d" !total !total_oracle;
  if !solves > 7 * !rows then
    Alcotest.failf "%d solves over %d rows, more than 7 a row" !solves !rows;
  if !total > 7149 then Alcotest.failf "%d passes over %d rows (gate 7,149)" !total !rows

(* Near Tmax, where the sizes reach their lower bounds one by one and
   the delay flattens in s, the search still lands in its window under
   Tc: a Newton step from a saturated point has no slope, and regula
   falsi against it stalls with one end fixed (the search then bisects).
   The regula falsi search it replaced missed the window on c1355 at
   0.9 Tmax. *)
let test_kkt_near_tmax () =
  List.iter
    (fun (p : Profiles.t) ->
      let name = p.Profiles.name in
      let path = profile_path name in
      let tmax = Path.delay_worst path (Path.min_sizing path) in
      List.iter
        (fun d ->
          let tc = tmax *. (1. -. d) in
          match Sens.size_for_constraint path ~tc with
          | Ok r ->
            if r.Sens.delay > tc || r.Sens.delay < tc *. (1. -. 2e-4) then
              Alcotest.failf "%s at %.3f Tmax: delay %.4f off the window under %.4f" name
                (1. -. d) r.Sens.delay tc
          | Error _ -> Alcotest.failf "%s at %.3f Tmax: declared infeasible" name (1. -. d))
        [ 0.001; 0.003; 0.01; 0.03; 0.1 ])
    Profiles.all

(* The deep-fuzz counterexample of sens.constraint_met: on this path the
   search's bracket on ln (-a) collapses at a point whose weight
   (beta = 1) leaves out the worse polarity, so its weighted delay is
   under the target while its worst delay misses tc by 1.3%.  The
   answer must meet tc. *)
let test_kkt_bracket_collapse () =
  let tech = Tech.at_corner Tech.cmos018 Tech.SF in
  let path =
    Path.of_kinds ~opts:Model.default_opts ~input_slope:5. ~input_edge:Edge.Rising
      ~branch:8.575 ~lib:(Library.make tech) ~c_out:2.
      [ Gk.Oai21; Gk.Aoi21; Gk.Nand 4; Gk.Aoi22; Gk.Nor 4 ]
  in
  let tc = 1.533562 *. Bounds.tmin path in
  match Sens.size_for_constraint path ~tc with
  | Ok r ->
    if r.Sens.delay > tc then
      Alcotest.failf "delay %.2f ps misses tc %.2f ps (beta %g, a %g)" r.Sens.delay tc
        r.Sens.beta r.Sens.a
  | Error _ -> Alcotest.failf "tc %.2f ps declared infeasible" tc

(* a stray POPS_FAULT must not perturb this deterministic suite;
   fault behaviour is covered by pops_prop and test_core's ladder *)
let () = Pops_check.Fault.clear ()

let () =
  Alcotest.run "pops_kernel"
    [
      ( "kernel",
        [
          Alcotest.test_case "delay bitwise vs reference" `Quick test_delay_bitwise;
          Alcotest.test_case "clamp bitwise vs reference" `Quick test_clamp_bitwise;
          Alcotest.test_case "gradient bitwise vs reference" `Quick
            test_gradient_bitwise;
          Alcotest.test_case "polarity flip = fresh construction" `Quick
            test_flip_is_fresh_make;
        ] );
      ( "solvers",
        [
          Alcotest.test_case "plain solve bitwise vs reference fixed point" `Quick
            test_solve_plain_bitwise;
          Alcotest.test_case "acceleration agrees at convergence" `Quick
            test_accel_agrees_when_converged;
          Alcotest.test_case "entry points unaffected" `Quick
            test_solver_entry_points_unaffected;
          Alcotest.test_case "regula falsi roots" `Quick test_bisect_roots;
          Alcotest.test_case "constraint bisection" `Quick test_bisect_for_beta;
          Alcotest.test_case "KKT sizer on the profile paths" `Quick test_kkt_profile_rows;
          Alcotest.test_case "KKT sizer near Tmax" `Quick test_kkt_near_tmax;
          Alcotest.test_case "KKT sizer meets tc past a collapsed bracket" `Quick
            test_kkt_bracket_collapse;
        ] );
    ]
