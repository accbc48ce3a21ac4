(** Job requests and results of the NDJSON serving protocol.

    One request per line, one result line per request, in submission
    order.  The full schema is documented in [docs/serving.md]; this
    module owns the decoding of a parsed {!Json.t} into a typed job and
    the deterministic rendering of its result. *)

type source =
  | Inline of string  (** [.bench] text embedded in the request *)
  | File of string  (** path readable by the server process *)

type action =
  | Analyze  (** parse, validate, STA, power — no mutation *)
  | Optimize  (** the full timing-closure flow ({!Pops_flow.Flow}) *)
  | Health
      (** readiness probe: report engine/cache/pool state without
          touching a netlist ([source] is an empty [Inline]) *)

type t = {
  seq : int;  (** submission index, assigned by the intake loop *)
  id : string;  (** client handle echoed in the result; default [job-<seq>] *)
  tenant : string;  (** budget-accounting principal; default ["default"] *)
  source : source;
  action : action;
  tc_ps : float option;  (** absolute delay constraint, ps *)
  tc_ratio : float option;
      (** constraint as a multiple of the initial STA critical delay;
          used when [tc_ps] is absent (engine default 0.8) *)
  max_rounds : int option;
  k_paths : int option;
  vt_assign : bool;
      (** run the multi-Vt leakage pass after sizing (default false) *)
}

val of_json : seq:int -> Json.t -> (t, string) result
(** Decode a request object.  Unknown fields are rejected (a typo'd
    option silently ignored is a debugging trap); exactly one of
    ["bench"] / ["bench_file"] is required.  A field that is present
    must have its type and range (docs/serving.md) or the request is
    rejected with a message naming it; an absent one takes its
    default. *)

(** Results.  [status] is the job-level verdict; {!exit_of_status} maps
    it onto the PR 5 CLI exit contract (0 ok / 1 constraint unmet or
    rejected / 2 invalid input / 3 internal), and batch mode exits with
    the worst code over all jobs. *)

type status =
  | Ok_  (** met, nominal *)
  | Degraded  (** usable result, quality diagnostics attached *)
  | Unmet  (** ran to completion but the constraint is not met *)
  | Rejected  (** refused at admission (tenant budget) — never ran *)
  | Overloaded
      (** shed by the transport under load (bounded in-flight queue);
          never ran — the result carries a [retry_after_ms] metric *)
  | Invalid  (** malformed request or netlist *)
  | Failed  (** the job's task crashed; other jobs are unaffected *)

type result = {
  seq : int;
  id : string;
  tenant : string;
  status : status;
  cache : [ `Hit | `Miss | `None ];  (** parsed-netlist cache verdict *)
  metrics : (string * Json.t) list;  (** action-specific payload, ordered *)
  diags : Pops_robust.Diag.t list;
  ms : float;  (** wall-clock of the job's execution stage *)
}

val exit_of_status : status -> int

val to_json : times:bool -> result -> Json.t
(** The result line.  [times:false] omits the wall-clock field — the
    rendering is then a pure function of the job outcome, which is what
    the determinism suite and the cram tests compare. *)

val round3 : float -> float
(** Metric rounding (3 decimals) applied by the engine so result lines
    are compact and print identically across formatting paths. *)
