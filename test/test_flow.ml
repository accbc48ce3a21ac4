(* Tests for Pops_flow: the netlist-level path-selection loop. *)

module Tech = Pops_process.Tech
module Library = Pops_cell.Library
module Netlist = Pops_netlist.Netlist
module Builder = Pops_netlist.Builder
module Generator = Pops_netlist.Generator
module Timing = Pops_sta.Timing
module Flow = Pops_flow.Flow
module Diag = Pops_robust.Diag
module Sens = Pops_core.Sensitivity

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

(* a solve cut by its sweep cap reports one solver-stalled warning whose
   message carries the step of its last trial point.  On Adder16's
   99-stage critical path a Newton step is two passes (the fused
   gradient-and-Hessian pass, then one objective evaluation that takes
   the full step), after the start's objective: four passes stop Newton
   inside its second iteration, after one accepted step, with the line
   search's trial point pending. *)
let test_stall_diagnostics_carry_step () =
  let p = Option.get (Pops_circuits.Profiles.find "Adder16") in
  let nl, spine = Pops_circuits.Profiles.circuit tech p in
  let path = (Pops_sta.Paths.extract ~lib nl spine).Pops_sta.Paths.path in
  Alcotest.(check int) "critical path stages" 99 (Pops_delay.Path.length path);
  let r = Sens.solve ~max_iter:4 path in
  let stalls =
    List.filter (fun d -> d.Diag.code = Diag.Solver_stalled) r.Sens.diags
  in
  Alcotest.(check int) "one stall" 1 (List.length stalls);
  let d = List.hd stalls in
  let sweeps, step =
    Scanf.sscanf d.Diag.message
      "fixed point not converged after %d sweeps (last step %g fF)%!"
      (fun n s -> (n, s))
  in
  Alcotest.(check int) "sweeps = stats.iterations" r.Sens.stats.Sens.iterations sweeps;
  if not (Float.is_finite step) then
    Alcotest.failf "stall without a finite step: %s" d.Diag.message;
  (* %g prints six significant digits *)
  Alcotest.(check bool)
    (Printf.sprintf "step %g = stats.residual %g" step r.Sens.stats.Sens.residual)
    true
    (Float.abs (step -. r.Sens.stats.Sens.residual)
     <= 1e-5 *. Float.abs r.Sens.stats.Sens.residual)

(* the solves of a flow converge: c1908 at 0.75x its STA delay, which
   stalled dozens of Gauss-Seidel solves, reports none *)
let test_flow_no_stalls () =
  let p = Option.get (Pops_circuits.Profiles.find "c1908") in
  let t = Netlist.copy (fst (Pops_circuits.Profiles.circuit tech p)) in
  let tc = 0.75 *. sta_delay t in
  let stalls =
    List.filter
      (fun d -> d.Diag.code = Diag.Solver_stalled)
      (Pops_robust.Outcome.diags (Flow.optimize_o ~lib ~tc t))
  in
  Alcotest.(check int) "solver-stalled diagnostics" 0 (List.length stalls)

(* the rewind to the best state: this grid overshoots at 0.8x and ends
   no-progress after rewinding to a state the log replays onto the
   pre-flow copy.  The digest of the final netlist is pinned: the edit
   log kept it from the best-state copies it replaced, and it moves only
   with the sizes the protocol writes back. *)
let test_flow_rewind_golden () =
  let t = Generator.generate_scale tech ~name:"g1" ~gates:500 ~shape:Generator.Grid in
  let tc = 0.8 *. sta_delay t in
  let r = optimize ~lib ~tc t in
  Alcotest.(check string) "outcome" "no-progress" (Flow.outcome_to_string r.Flow.outcome);
  Alcotest.(check int) "buffer inverters" 46 r.Flow.buffers_added;
  Alcotest.(check int) "rewrites" 13 r.Flow.rewrites;
  Alcotest.(check int) "iterations" 15 (List.length r.Flow.iterations);
  List.iter
    (fun (it : Flow.iteration) ->
      if r.Flow.final_delay > it.Flow.critical_delay then
        Alcotest.failf "final %.17g above round %d's start %.17g" r.Flow.final_delay
          it.Flow.round it.Flow.critical_delay)
    r.Flow.iterations;
  Alcotest.(check bool) "equivalence kept" true (r.Flow.equivalence = Ok ());
  Alcotest.(check string) "final netlist digest" "a97562f079f360d31b572127b5d96268"
    (Digest.to_hex (Digest.string (Pops_netlist.Bench_io.to_string t)))

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
          Alcotest.test_case "no solver stalls on c1908 at 0.75x" `Quick
            test_flow_no_stalls;
          Alcotest.test_case "rewind golden: g1 500-gate grid at 0.8x" `Quick
            test_flow_rewind_golden;
          qtest prop_flow_keeps_logic_and_validity;
        ] );
    ]
