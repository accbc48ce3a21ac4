(** The complete optimization protocol (Fig. 7).

    Given a bounded path and a delay constraint [Tc]:

    + characterise the optimization space: [Tmin], [Tmax] (Section 3.1)
      — and, once per library, the [Flimit] of every gate kind;
    + if [Tc < Tmin] the constraint is infeasible by sizing alone: modify
      the structure — buffer insertion with global sizing, and (when
      allowed) De Morgan restructuring, keeping the better result;
    + otherwise classify the constraint domain and pick the alternative:
      weak: gate sizing; medium: buffer insertion (kept only if it saves
      area); hard: buffer insertion with global sizing, optionally
      compared against restructuring. *)

type strategy =
  | Sizing_only
  | Buffers_and_sizing
  | Restructure_and_sizing

type report = {
  tc : float;
  tmin : float;  (** of the original path *)
  tmax : float;
  domain : Domains.t;
  strategy : strategy;
  path : Pops_delay.Path.t;  (** final structure *)
  sizing : float array;
  delay : float;
  area : float;  (** including off-path side inverters, if any *)
  met : bool;  (** whether [delay <= tc] *)
  buffers_inserted : int;
  rewrites : Restructure.rewrite list;
  pairs : int list;
      (** original stage indices that received a series inverter pair *)
  shields : Buffers.shield list;
      (** branch loads diluted by off-path shield buffers *)
}

val run :
  ?allow_restructure:bool ->
  lib:Pops_cell.Library.t ->
  tc:float ->
  Pops_delay.Path.t ->
  report
(** Run the protocol.  [allow_restructure] (default true) enables the
    Section 4.2 alternative in the hard/infeasible domains.

    The alternatives run as tasks on
    {!Pops_util.Pool.map_list_contained}; in the medium and hard domains
    one task sizes the path once and hands the answer to both the sizing
    candidate and {!Buffers.insert_global}'s [~base].  A crashing task
    degrades to a {!Pops_robust.Diag.Pool_task_failed} diagnostic and
    its candidates drop out of the min-area comparison instead of
    aborting the run.  Diagnostics flow to the ambient
    {!Pops_robust.Watch} collector in deterministic submission order. *)

val strategy_to_string : strategy -> string
val pp_report : Format.formatter -> report -> unit
