(* Tests for Pops_flow: the netlist-level path-selection loop. *)

module Tech = Pops_process.Tech
module Library = Pops_cell.Library
module Netlist = Pops_netlist.Netlist
module Builder = Pops_netlist.Builder
module Generator = Pops_netlist.Generator
module Timing = Pops_sta.Timing
module Flow = Pops_flow.Flow
module Diag = Pops_robust.Diag

let qtest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xC0FFEE |]) t

let tech = Tech.cmos025
let lib = Library.make tech

let fresh name path_gates =
  fst (Generator.generate tech (Generator.make_profile ~name ~path_gates ()))

let sta_delay t = Timing.critical_delay (Timing.analyze ~lib t)

let optimize ?max_rounds ~lib ~tc t =
  Pops_robust.Outcome.get (Flow.optimize_o ?max_rounds ~lib ~tc t)

let test_flow_meets_moderate_constraint () =
  let t = fresh "flow20" 20 in
  let d0 = sta_delay t in
  let tc = 0.7 *. d0 in
  let r = optimize ~lib ~tc t in
  Alcotest.(check bool) "outcome met" true (r.Flow.outcome = Flow.Met);
  Alcotest.(check bool) "STA confirms" true (sta_delay t <= tc *. 1.001 +. 0.05);
  Alcotest.(check bool) "equivalence kept" true (r.Flow.equivalence = Ok ())

let test_flow_improves_hard_constraint () =
  let t = fresh "flow25" 25 in
  let d0 = sta_delay t in
  (* well below what sizing alone reaches: forces structural moves *)
  let tc = 0.45 *. d0 in
  let r = optimize ~lib ~tc t in
  Alcotest.(check bool) "final faster than initial" true
    (r.Flow.final_delay < r.Flow.initial_delay);
  Alcotest.(check bool) "equivalence kept" true (r.Flow.equivalence = Ok ());
  (match Netlist.validate t with
  | Ok () -> ()
  | Error m -> Alcotest.failf "netlist broken: %s" m);
  if r.Flow.outcome = Flow.Met then
    Alcotest.(check bool) "STA confirms" true (sta_delay t <= tc *. 1.001 +. 0.05)

let test_flow_noop_when_already_met () =
  let t = fresh "flow15" 15 in
  let d0 = sta_delay t in
  let area0 = Netlist.total_area t lib in
  let r = optimize ~lib ~tc:(2. *. d0) t in
  Alcotest.(check bool) "met immediately" true (r.Flow.outcome = Flow.Met);
  Alcotest.(check (list pass)) "no iterations" [] r.Flow.iterations;
  Alcotest.(check bool) "area untouched" true
    (Float.abs (Netlist.total_area t lib -. area0) < 1e-9)

let test_flow_reports_consistent () =
  let t = fresh "flow18" 18 in
  let d0 = sta_delay t in
  let r = optimize ~lib ~tc:(0.8 *. d0) t in
  Alcotest.(check bool) "initial delay recorded" true
    (Float.abs (r.Flow.initial_delay -. d0) < 1.);
  Alcotest.(check bool) "final delay = STA" true
    (Float.abs (r.Flow.final_delay -. sta_delay t) < 1.);
  Alcotest.(check bool) "final area = netlist" true
    (Float.abs (r.Flow.final_area -. Netlist.total_area t lib) < 1e-6)

let test_flow_on_adder () =
  let t = Builder.ripple_carry_adder tech ~bits:8 ~out_load:20. in
  let d0 = sta_delay t in
  let tc = 0.85 *. d0 in
  let r = optimize ~lib ~tc t in
  Alcotest.(check bool) "adder improves or meets" true
    (r.Flow.outcome = Flow.Met || r.Flow.final_delay < d0);
  Alcotest.(check bool) "adder logic intact" true (r.Flow.equivalence = Ok ())

let prop_flow_keeps_logic_and_validity =
  QCheck.Test.make ~name:"flow preserves logic and netlist invariants" ~count:6
    QCheck.(pair (int_range 8 20) (int_range 55 90))
    (fun (path_gates, pctl) ->
      let t =
        fresh (Printf.sprintf "flowq%d_%d" path_gates pctl) path_gates
      in
      let tc = float_of_int pctl /. 100. *. sta_delay t in
      let r = optimize ~max_rounds:8 ~lib ~tc t in
      Netlist.validate t = Ok () && r.Flow.equivalence = Ok ())

(* every solver-stalled warning names the step of its solve's last sweep;
   c1908 at 0.75x its STA delay stalls dozens of solves *)
let test_stall_diagnostics_carry_step () =
  let p = Option.get (Pops_circuits.Profiles.find "c1908") in
  let t = Netlist.copy (fst (Pops_circuits.Profiles.circuit tech p)) in
  let tc = 0.75 *. sta_delay t in
  let stalls =
    List.filter
      (fun d -> d.Diag.code = Diag.Solver_stalled)
      (Pops_robust.Outcome.diags (Flow.optimize_o ~lib ~tc t))
  in
  Alcotest.(check bool) "some solves stall" true (stalls <> []);
  List.iter
    (fun d ->
      let step =
        Scanf.sscanf d.Diag.message
          "fixed point not converged after %_d sweeps (last step %s@ "
          float_of_string
      in
      if not (Float.is_finite step) then
        Alcotest.failf "stall without a finite step: %s" d.Diag.message)
    stalls

(* a stray POPS_FAULT must not perturb this deterministic suite;
   fault behaviour is covered by pops_prop and test_core's ladder *)
let () = Pops_check.Fault.clear ()

let () =
  Alcotest.run "pops_flow"
    [
      ( "flow",
        [
          Alcotest.test_case "meets moderate constraint" `Quick test_flow_meets_moderate_constraint;
          Alcotest.test_case "improves under hard constraint" `Quick test_flow_improves_hard_constraint;
          Alcotest.test_case "noop when already met" `Quick test_flow_noop_when_already_met;
          Alcotest.test_case "report consistent" `Quick test_flow_reports_consistent;
          Alcotest.test_case "ripple adder" `Quick test_flow_on_adder;
          Alcotest.test_case "stall diagnostics carry the step" `Quick
            test_stall_diagnostics_carry_step;
          qtest prop_flow_keeps_logic_and_validity;
        ] );
    ]
