(** Structured diagnostics: the vocabulary of the resilience layer.

    Every recoverable anomaly in the engine — a solver walking its
    fallback ladder, a netlist failing validation, a contained pool-task
    crash — is described by one {!t}: a machine-readable {!code}, a
    severity, the subject it concerns (a node, a path, a [file:line]),
    a human message and a remediation hint.  Boundary APIs surface lists
    of these through {!Outcome.t}; front ends map {!classify} onto exit
    codes (see docs/robustness.md for the full table). *)

type severity = Info | Warning | Error

type code =
  | Solver_divergence  (** residual grew / fault forced the rung to fail *)
  | Solver_nonfinite  (** NaN/Inf detected in the solver iterate *)
  | Solver_stalled  (** iteration cap reached without convergence *)
  | Solver_fallback  (** the Tmax-safe minimum-drive rung was used *)
  | Bracket_collapse  (** a root bracket collapsed before meeting target *)
  | Budget_exceeded  (** wall-clock or iteration budget exhausted *)
  | Netlist_cycle  (** combinational loop (message names the cycle) *)
  | Netlist_dangling  (** dangling fanin/fanout reference *)
  | Netlist_zero_fanout  (** gate drives nothing and is not an output *)
  | Netlist_bad_cin  (** non-positive input capacitance *)
  | Bench_syntax  (** .bench parse error (subject = [line N]) *)
  | Bench_truncated  (** .bench input ends mid-statement *)
  | Invalid_input  (** other malformed user input *)
  | Constraint_infeasible  (** Tc below the achievable Tmin *)
  | Admission_rejected
      (** a serve-mode job was refused at admission: its tenant's
          aggregate budget is exhausted (the job never ran) *)
  | Overloaded
      (** the server shed this job under load (bounded in-flight queue
          full, or session table full); the result carries a
          [retry_after_ms] hint and the job never ran *)
  | Deadline_exceeded
      (** a connection sat idle (or failed to drain its responses)
          past the configured idle deadline and was closed *)
  | Net_error
      (** a connection-level I/O failure (reset, broken pipe, refused
          accept); degrades only that session *)
  | Pool_task_failed  (** a contained domain task raised *)
  | Fault_injected  (** an injection point fired (testing only) *)
  | Internal  (** invariant violation inside the engine *)

type t = {
  code : code;
  severity : severity;
  subject : string option;  (** node id, path label, or [file:line] *)
  message : string;
  hint : string option;  (** remediation hint *)
}

exception Fatal of t
(** Raised by legacy (exception-based) wrappers around [Result]/
    [Outcome]-returning entry points.  A printer is registered. *)

val make :
  ?severity:severity -> ?subject:string -> ?hint:string -> code -> string -> t
(** [make code message] with the code's default severity and
    remediation hint unless overridden. *)

val makef :
  ?severity:severity -> ?subject:string -> ?hint:string -> code ->
  ('a, unit, string, t) format4 -> 'a
(** Formatted {!make}. *)

val code_name : code -> string
(** Stable kebab-case name, e.g. ["solver-divergence"] — the spelling
    used in docs, CLI output and fault specs. *)

val classify : code -> [ `Invalid_input | `Constraint | `Degradation | `Internal ]
(** What a front end should do: reject the input (exit 2), report an
    unmet constraint (exit 1), continue with a degraded result (exit 0),
    or treat as an engine bug (exit 3). *)

val one_line : t -> string
(** The compact [code (subject): message] form the CLI prints. *)

val pp : Format.formatter -> t -> unit
