(** Deterministic fault injection — the registry behind [POPS_FAULT].

    The engine carries a small, closed set of named injection points
    ({!points}): force a solver rung to diverge, poison an iterate with
    NaN, raise inside a pool task, truncate a [.bench] mid-statement,
    abort the multi-Vt swap loop, or break the socket listener's
    connection lifecycle ([net.accept] refuses a fresh connection,
    [net.read] / [net.write] fail a session's I/O, [net.stall] freezes
    a session until its idle deadline trips).
    A {e spec} arms a subset of them:

    {v entry  ::= point [ "@" prob ] | "seed=" int64
spec   ::= entry ("," entry)*          v}

    where [point] is a registered name, a dot-prefix of one
    ([solver.diverge] arms all three rung variants), or [all].  [prob]
    defaults to [1.] (always fire).  Examples:
    [POPS_FAULT=all], [POPS_FAULT=solver.nan@0.25,pool.raise,seed=7].

    Firing is a pure function of (seed, point name, per-point call
    index) — SplitMix64-hashed, so a spec replays deterministically on
    one domain; at [prob = 1] it is deterministic at any domain count.

    The spec from the [POPS_FAULT] environment variable is armed at
    program start; test harnesses re-arm programmatically with
    {!with_spec} and disable with {!clear}.  See docs/robustness.md. *)

exception Injected of string
(** Raised by {!inject} sites (the pool-task point); carries the point
    name.  Contained fan-outs convert it into a
    {!Diag.Pool_task_failed} diagnostic. *)

val points : string list
(** Registered injection-point names. *)

val fire : string -> bool
(** [fire point] — should this occurrence of [point] inject?  False
    when no spec is armed, the point is not armed, or the probability
    draw misses.  One atomic read on the disarmed path. *)

val inject : string -> unit
(** [inject point] raises {!Injected} iff [fire point]. *)

val clear : unit -> unit
(** Disarm all injection points. *)

val with_spec : string -> (unit -> 'a) -> 'a
(** Arm a spec around a call, restoring the previous spec after.
    @raise Invalid_argument on a malformed spec. *)

val ambient : string option
(** The [POPS_FAULT] environment value captured at program start (armed
    automatically when it parses; see {!ambient_error}). *)

val ambient_error : string option
(** Parse error of the ambient spec, for front ends to surface. *)
