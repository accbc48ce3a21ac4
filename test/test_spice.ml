(* Tests for Pops_spice: waveforms, the alpha-power MOSFET law, and the
   transient simulator's agreement with the analytical model. *)

module Tech = Pops_process.Tech
module Gk = Pops_cell.Gate_kind
module Library = Pops_cell.Library
module Edge = Pops_delay.Edge
module Model = Pops_delay.Model
module Path = Pops_delay.Path
module Waveform = Pops_spice.Waveform
module Mosfet = Pops_spice.Mosfet
module Transient = Pops_spice.Transient

let qtest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xC0FFEE |]) t

let tech = Tech.cmos025
let lib = Library.make tech

let check_close ?(eps = 1e-9) msg expected actual =
  if not (Pops_util.Numerics.close ~rtol:eps ~atol:eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* --- waveform --- *)

let test_ramp_values () =
  let w = Waveform.ramp ~t0:10. ~duration:20. ~v_from:0. ~v_to:2.5 ~dt:0.5 in
  check_close ~eps:1e-6 "before" 0. (Waveform.value w 0.);
  check_close ~eps:1e-6 "after" 2.5 (Waveform.value w 100.);
  let mid = Waveform.value w 20. in
  Alcotest.(check bool) "midpoint near half" true (mid > 1.0 && mid < 1.5)

let test_crossing () =
  let w = Waveform.ramp ~t0:0. ~duration:10. ~v_from:0. ~v_to:1. ~dt:0.1 in
  (match Waveform.crossing w ~level:0.5 ~rising:true with
  | Some t -> Alcotest.(check bool) "near mid" true (Float.abs (t -. 5.) < 0.5)
  | None -> Alcotest.fail "no crossing");
  Alcotest.(check bool) "no falling crossing on a rising ramp" true
    (Waveform.crossing w ~level:0.5 ~rising:false = None)

let test_transition_time_of_ramp () =
  (* a pure linear ramp's scaled 20-80 transition equals its duration *)
  let w = Waveform.ramp ~t0:0. ~duration:30. ~v_from:0. ~v_to:2.5 ~dt:0.05 in
  match Waveform.transition_time w ~vdd:2.5 ~rising:true with
  | Some tr -> Alcotest.(check bool) "recovers duration" true (Float.abs (tr -. 30.) < 1.)
  | None -> Alcotest.fail "no transition"

let test_waveform_validation () =
  (match Waveform.create ~t0:0. ~dt:1. [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty accepted");
  match Waveform.create ~t0:0. ~dt:(-1.) [| 1. |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative dt accepted"

let test_slope () =
  let w = Waveform.ramp ~t0:0. ~duration:10. ~v_from:0. ~v_to:1. ~dt:0.1 in
  let s = Waveform.slope w 5. in
  Alcotest.(check bool) "slope ~ 0.1 V/ps" true (Float.abs (s -. 0.1) < 0.02)

(* --- mosfet --- *)

let test_cutoff () =
  let n = Mosfet.nmos tech in
  check_close "below threshold" 0. (Mosfet.current n ~w:1. ~vgs:0.3 ~vds:1.);
  check_close "zero vds" 0. (Mosfet.current n ~w:1. ~vgs:2.5 ~vds:0.)

let test_saturation_monotone_in_vgs () =
  let n = Mosfet.nmos tech in
  let i1 = Mosfet.current n ~w:1. ~vgs:1.5 ~vds:2.5 in
  let i2 = Mosfet.current n ~w:1. ~vgs:2.5 ~vds:2.5 in
  Alcotest.(check bool) "more gate drive, more current" true (i2 > i1 && i1 > 0.)

let test_linear_region_below_sat () =
  let n = Mosfet.nmos tech in
  let i_sat = Mosfet.current n ~w:1. ~vgs:2.5 ~vds:2.5 in
  let i_lin = Mosfet.current n ~w:1. ~vgs:2.5 ~vds:0.1 in
  Alcotest.(check bool) "triode current below saturation" true (i_lin < i_sat && i_lin > 0.)

let test_current_linear_in_width () =
  let n = Mosfet.nmos tech in
  let i1 = Mosfet.current n ~w:1. ~vgs:2. ~vds:2. in
  let i2 = Mosfet.current n ~w:2. ~vgs:2. ~vds:2. in
  check_close ~eps:1e-9 "doubling W doubles I" (2. *. i1) i2

let test_pmos_weaker () =
  let n = Mosfet.nmos tech and p = Mosfet.pmos tech in
  let i_n = Mosfet.current n ~w:1. ~vgs:2.5 ~vds:2.5 in
  let i_p = Mosfet.current p ~w:1. ~vgs:2.5 ~vds:2.5 in
  Alcotest.(check bool) "holes slower" true (i_p < i_n)

let test_stack_width () =
  check_close ~eps:1e-9 "single device unchanged" 2. (Mosfet.stack_width ~factor:0.7 2. ~n:1);
  Alcotest.(check bool) "stack reduces" true (Mosfet.stack_width ~factor:0.7 2. ~n:3 < 2.)

(* --- transient --- *)

let test_fo4_canonical () =
  let d = Transient.fo4 tech in
  Alcotest.(check bool) (Printf.sprintf "FO4 = %.1f ps in [60,140]" d) true
    (d > 60. && d < 140.)

let test_fo4_matches_analytic () =
  (* tau was calibrated against the simulator: the two FO4s agree to 10% *)
  let sim = Transient.fo4 tech and ana = Model.fo4_delay tech in
  Alcotest.(check bool) (Printf.sprintf "sim %.1f vs analytic %.1f" sim ana) true
    (Float.abs (sim -. ana) /. sim < 0.10)

let mixed_path =
  Path.of_kinds ~lib ~branch:5. ~c_out:60.
    [ Gk.Inv; Gk.Nand 2; Gk.Inv; Gk.Nor 2; Gk.Nand 3; Gk.Inv ]

let test_path_sim_agrees_with_model () =
  let x = (Pops_core.Sensitivity.solve mixed_path).sizing in
  let analytic = Path.delay mixed_path x in
  let sim = (Transient.simulate_path mixed_path x).Transient.total_delay in
  let ratio = sim /. analytic in
  Alcotest.(check bool) (Printf.sprintf "ratio %.2f within [0.8, 1.25]" ratio) true
    (ratio > 0.8 && ratio < 1.25)

let test_sim_monotone_in_load () =
  let p_light = Path.of_kinds ~lib ~c_out:20. [ Gk.Inv; Gk.Inv ] in
  let p_heavy = Path.of_kinds ~lib ~c_out:120. [ Gk.Inv; Gk.Inv ] in
  let x = Path.min_sizing p_light in
  let d_light = (Transient.simulate_path p_light x).Transient.total_delay in
  let d_heavy = (Transient.simulate_path p_heavy x).Transient.total_delay in
  Alcotest.(check bool) "more load, more delay" true (d_heavy > d_light)

let test_sim_improves_with_drive () =
  let p = Path.of_kinds ~lib ~c_out:120. [ Gk.Inv; Gk.Inv; Gk.Inv ] in
  let x_small = Path.min_sizing p in
  let x_big = Array.map (fun c -> 4. *. c) x_small in
  let d_small = (Transient.simulate_path p x_small).Transient.total_delay in
  let d_big = (Transient.simulate_path p (Path.clamp_sizing p x_big)).Transient.total_delay in
  Alcotest.(check bool) "bigger drive, less delay" true (d_big < d_small)

let test_sim_stack_effect () =
  (* a NAND3 (falling critical) is slower than an inverter at equal size:
     the stack effect the logical weights model *)
  let d kind =
    let p = Path.of_kinds ~lib ~c_out:50. [ Gk.Inv; kind; Gk.Inv ] in
    let x = Path.clamp_sizing p [| 0.; 11.2; 11.2 |] in
    (Transient.simulate_path_worst p x).Transient.total_delay
  in
  Alcotest.(check bool) "nand3 slower than inv" true (d (Gk.Nand 3) > d Gk.Inv);
  Alcotest.(check bool) "nor3 slower than nand3" true (d (Gk.Nor 3) > d (Gk.Nand 3))

let test_sim_slope_effect () =
  (* slower input edge -> longer stage delay (the v_T tau_in / 2 term) *)
  let mk slope = Path.of_kinds ~lib ~input_slope:slope ~c_out:30. [ Gk.Inv ] in
  let x = [| 5.6 |] in
  let d_fast = (Transient.simulate_path (mk 10.) x).Transient.total_delay in
  let d_slow = (Transient.simulate_path (mk 300.) x).Transient.total_delay in
  Alcotest.(check bool) "slow input slows gate" true (d_slow > d_fast)

let test_sim_worst_at_least_single () =
  let x = Path.min_sizing mixed_path in
  let single = (Transient.simulate_path mixed_path x).Transient.total_delay in
  let worst = (Transient.simulate_path_worst mixed_path x).Transient.total_delay in
  Alcotest.(check bool) "worst >= single polarity" true (worst >= single -. 1e-9)

let test_stage_arrays_shape () =
  let x = Path.min_sizing mixed_path in
  let r = Transient.simulate_path mixed_path x in
  Alcotest.(check int) "delays per stage" 6 (Array.length r.Transient.stage_delays);
  Alcotest.(check int) "transitions per stage" 6 (Array.length r.Transient.stage_transitions);
  Array.iter
    (fun d -> Alcotest.(check bool) "finite positive" true (Float.is_finite d && d > 0.))
    r.Transient.stage_transitions

let test_sim_xor_path () =
  (* non-inverting stage: the behavioural control swap must still settle *)
  let p = Path.of_kinds ~lib ~c_out:40. [ Gk.Inv; Gk.Xor2; Gk.Inv ] in
  let r = Transient.simulate_path ~steps_per_stage:600 p (Path.min_sizing p) in
  Alcotest.(check bool) "finite positive" true
    (Float.is_finite r.Transient.total_delay && r.Transient.total_delay > 0.)

let test_sim_falling_input () =
  let p =
    Path.of_kinds ~input_edge:Edge.Falling ~lib ~c_out:40. [ Gk.Inv; Gk.Inv ]
  in
  let r = Transient.simulate_path ~steps_per_stage:600 p (Path.min_sizing p) in
  Alcotest.(check bool) "finite positive" true (r.Transient.total_delay > 0.)

(* --- property: model/sim agreement across random sized paths --- *)

let random_case =
  QCheck.make
    ~print:(fun (p, _) -> Format.asprintf "%a" Path.pp p)
    QCheck.Gen.(
      let* len = int_range 2 5 in
      let* kinds =
        list_size (return len) (oneofl [ Gk.Inv; Gk.Nand 2; Gk.Nor 2; Gk.Nand 3 ])
      in
      let* c_out = float_range 15. 120. in
      let* scale = float_range 1. 6. in
      let p = Path.of_kinds ~lib ~c_out kinds in
      let x = Array.map (fun c -> c *. scale) (Path.min_sizing p) in
      return (p, x))

let prop_sim_vs_model_band =
  QCheck.Test.make ~name:"simulator within 35% of the analytic model" ~count:15
    random_case
    (fun (p, x) ->
      let x = Path.clamp_sizing p x in
      let analytic = Path.delay p x in
      let sim = (Transient.simulate_path ~steps_per_stage:800 p x).Transient.total_delay in
      let ratio = sim /. analytic in
      ratio > 0.65 && ratio < 1.35)

(* a stray POPS_FAULT must not perturb this deterministic suite;
   fault behaviour is covered by pops_prop and test_core's ladder *)
let () = Pops_check.Fault.clear ()

let () =
  Alcotest.run "pops_spice"
    [
      ( "waveform",
        [
          Alcotest.test_case "ramp values" `Quick test_ramp_values;
          Alcotest.test_case "crossing" `Quick test_crossing;
          Alcotest.test_case "transition of ramp" `Quick test_transition_time_of_ramp;
          Alcotest.test_case "validation" `Quick test_waveform_validation;
          Alcotest.test_case "slope" `Quick test_slope;
        ] );
      ( "mosfet",
        [
          Alcotest.test_case "cutoff" `Quick test_cutoff;
          Alcotest.test_case "saturation monotone" `Quick test_saturation_monotone_in_vgs;
          Alcotest.test_case "linear region" `Quick test_linear_region_below_sat;
          Alcotest.test_case "width linearity" `Quick test_current_linear_in_width;
          Alcotest.test_case "pmos weaker" `Quick test_pmos_weaker;
          Alcotest.test_case "stack width" `Quick test_stack_width;
        ] );
      ( "transient",
        [
          Alcotest.test_case "FO4 canonical" `Quick test_fo4_canonical;
          Alcotest.test_case "FO4 matches analytic" `Quick test_fo4_matches_analytic;
          Alcotest.test_case "path agrees with model" `Quick test_path_sim_agrees_with_model;
          Alcotest.test_case "monotone in load" `Quick test_sim_monotone_in_load;
          Alcotest.test_case "improves with drive" `Quick test_sim_improves_with_drive;
          Alcotest.test_case "stack effect" `Quick test_sim_stack_effect;
          Alcotest.test_case "slope effect" `Quick test_sim_slope_effect;
          Alcotest.test_case "worst >= single" `Quick test_sim_worst_at_least_single;
          Alcotest.test_case "stage arrays" `Quick test_stage_arrays_shape;
          Alcotest.test_case "xor path" `Quick test_sim_xor_path;
          Alcotest.test_case "falling input" `Quick test_sim_falling_input;
          qtest prop_sim_vs_model_band;
        ] );
    ]
