type severity = Info | Warning | Error

type code =
  | Solver_divergence
  | Solver_nonfinite
  | Solver_stalled
  | Solver_fallback
  | Bracket_collapse
  | Budget_exceeded
  | Netlist_cycle
  | Netlist_dangling
  | Netlist_zero_fanout
  | Netlist_bad_cin
  | Bench_syntax
  | Bench_truncated
  | Invalid_input
  | Constraint_infeasible
  | Admission_rejected
  | Overloaded
  | Deadline_exceeded
  | Net_error
  | Pool_task_failed
  | Fault_injected
  | Internal

type t = {
  code : code;
  severity : severity;
  subject : string option;
  message : string;
  hint : string option;
}

exception Fatal of t

let code_name = function
  | Solver_divergence -> "solver-divergence"
  | Solver_nonfinite -> "solver-nonfinite"
  | Solver_stalled -> "solver-stalled"
  | Solver_fallback -> "solver-fallback"
  | Bracket_collapse -> "bracket-collapse"
  | Budget_exceeded -> "budget-exceeded"
  | Netlist_cycle -> "netlist-cycle"
  | Netlist_dangling -> "netlist-dangling"
  | Netlist_zero_fanout -> "netlist-zero-fanout"
  | Netlist_bad_cin -> "netlist-bad-cin"
  | Bench_syntax -> "bench-syntax"
  | Bench_truncated -> "bench-truncated"
  | Invalid_input -> "invalid-input"
  | Constraint_infeasible -> "constraint-infeasible"
  | Admission_rejected -> "admission-rejected"
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline-exceeded"
  | Net_error -> "net-error"
  | Pool_task_failed -> "pool-task-failed"
  | Fault_injected -> "fault-injected"
  | Internal -> "internal"

let default_severity = function
  | Netlist_zero_fanout | Solver_fallback | Bracket_collapse -> Warning
  | Fault_injected -> Info
  | Solver_divergence | Solver_nonfinite | Solver_stalled | Budget_exceeded
  | Overloaded | Deadline_exceeded | Net_error | Pool_task_failed -> Warning
  | Netlist_cycle | Netlist_dangling | Netlist_bad_cin | Bench_syntax
  | Bench_truncated | Invalid_input | Constraint_infeasible
  | Admission_rejected | Internal -> Error

(* what a front end should do with the diagnostic: reject the input,
   report an unmet constraint, keep going with a degraded result, or
   treat it as a bug in the engine *)
let classify = function
  | Netlist_cycle | Netlist_dangling | Netlist_bad_cin | Bench_syntax
  | Bench_truncated | Invalid_input -> `Invalid_input
  | Constraint_infeasible | Admission_rejected | Overloaded -> `Constraint
  | Solver_divergence | Solver_nonfinite | Solver_stalled | Solver_fallback
  | Bracket_collapse | Budget_exceeded | Netlist_zero_fanout
  | Deadline_exceeded | Net_error | Pool_task_failed | Fault_injected ->
    `Degradation
  | Internal -> `Internal

let default_hint = function
  | Solver_divergence | Solver_nonfinite | Solver_stalled ->
    Some "the solver fell back down the ladder; see docs/robustness.md"
  | Solver_fallback ->
    Some "result is valid but conservative (no worse than the Tmax bound)"
  | Budget_exceeded -> Some "raise the budget caps or relax the constraint"
  | Netlist_cycle -> Some "break the combinational loop before optimizing"
  | Netlist_bad_cin -> Some "gate input capacitances must be positive"
  | Bench_syntax | Bench_truncated -> Some "fix the .bench source line"
  | Constraint_infeasible ->
    Some "Tc is below Tmin: apply structure modification (pops protocol)"
  | Admission_rejected ->
    Some "the tenant's serve budget is exhausted: raise --tenant-sweeps or spread the jobs"
  | Overloaded ->
    Some "the server shed this job under load: retry after the hinted delay"
  | Deadline_exceeded ->
    Some "the connection sat idle past --idle-timeout; reconnect to continue"
  | _ -> None

let make ?severity ?subject ?hint code message =
  let severity = Option.value severity ~default:(default_severity code) in
  let hint = match hint with Some _ as h -> h | None -> default_hint code in
  { code; severity; subject; message; hint }

let makef ?severity ?subject ?hint code fmt =
  Printf.ksprintf (make ?severity ?subject ?hint code) fmt

let severity_name = function Info -> "info" | Warning -> "warning" | Error -> "error"

let to_string d =
  Printf.sprintf "[%s] %s%s: %s%s" (severity_name d.severity) (code_name d.code)
    (match d.subject with Some s -> " (" ^ s ^ ")" | None -> "")
    d.message
    (match d.hint with Some h -> " [hint: " ^ h ^ "]" | None -> "")

let one_line d =
  Printf.sprintf "%s%s: %s" (code_name d.code)
    (match d.subject with Some s -> " (" ^ s ^ ")" | None -> "")
    d.message

let pp ppf d = Format.pp_print_string ppf (to_string d)

let () =
  Printexc.register_printer (function
    | Fatal d -> Some ("Pops_robust.Diag.Fatal: " ^ to_string d)
    | _ -> None)
