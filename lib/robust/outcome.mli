(** The result shape of resilient entry points.

    [Exact v] — the nominal computation succeeded with no anomaly.
    [Degraded (v, diags)] — a usable result was produced, but something
    degraded along the way (a solver fell down its fallback ladder, a
    pool task was contained, a budget ran out); [diags] says what and
    why.  [Failed d] — no usable result exists (the input itself is
    invalid); [d] is the blocking diagnostic.

    The resilience contract of the optimization engine: given a {e
    valid} netlist, flow entry points never return [Failed] — at worst
    they degrade to the Tmax-safe sizing and report it. *)

type 'a t =
  | Exact of 'a
  | Degraded of 'a * Diag.t list
  | Failed of Diag.t

val make : 'a -> Diag.t list -> 'a t
(** [Exact] when the list carries no warning/error, [Degraded] otherwise
    (info-only diagnostics do not demote an exact result). *)

val value : 'a t -> 'a option
val get : 'a t -> 'a
(** @raise Diag.Fatal on [Failed] — the legacy-wrapper bridge. *)

val diags : 'a t -> Diag.t list
val degraded : 'a t -> bool
val map : ('a -> 'b) -> 'a t -> 'b t
val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
