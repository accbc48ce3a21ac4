(** Post-sizing multi-Vt leakage assignment.

    After the sizing flow meets (or best-efforts) its constraint, the
    circuit usually has gates with positive slack — off-critical logic
    whose speed is wasted.  This pass converts that slack into leakage
    savings by promoting gates to higher threshold classes
    ({!Pops_process.Vt.t}: LVT -> SVT -> HVT), whose subthreshold
    leakage is exponentially lower at a small delay penalty.

    The protocol is a greedy accept/reject loop: rank all promotable
    gates by the leakage a one-step promotion would save, try them
    best-first, keep a swap iff the incrementally re-timed worst
    arrival still meets [tc], and repeat until a round accepts nothing.
    Sizing is never modified.  See docs/multi-vt.md for the model and
    the determinism contract. *)

type report = {
  leakage_before : float;  (** uW, under the incoming Vt assignment *)
  leakage_after : float;  (** uW, under the final assignment *)
  accepted : int;  (** swaps kept (slack remained non-negative) *)
  rejected : int;  (** swaps tried and reverted *)
  rounds : int;  (** ranking passes, including the final empty one *)
  ms : float;  (** wall-clock of the pass *)
}

val run :
  ?pool:Pops_util.Pool.t ->
  lib:Pops_cell.Library.t ->
  tc:float ->
  timing:Pops_sta.Timing.t ->
  Pops_netlist.Netlist.t ->
  report
(** Run the assignment loop on [t], mutating gate Vt classes in place
    through {!Pops_netlist.Netlist.set_vt} and re-timing through the
    caller's persistent [timing] (which must be an annotation of [t]).

    Guarantees:
    - leakage is monotone non-increasing across the loop;
    - if the incoming netlist meets [tc] (worst arrival [<= tc]), the
      final one does too — every accepted swap re-checks the bitwise
      STA verdict; on a netlist that misses [tc] no swap is accepted
      and the pass is a no-op;
    - the result is a pure function of the incoming netlist: the
      candidate ranking is ordered (saving descending, id ascending),
      so runs are bit-identical at any pool domain count.

    The ranking fans out over [pool] (the shared default when omitted);
    the accept/reject walk is sequential.

    Fault containment: the [vt.swap] injection point fires inside the
    swap loop; on injection the pass rewinds every accepted swap,
    emits a {!Pops_robust.Diag.Fault_injected} warning through
    {!Pops_robust.Watch} and returns a zero-swap report — callers see a
    degraded outcome with the pre-pass assignment and sizing intact. *)

val pp_report : Format.formatter -> report -> unit
