(** Human-readable timing reports, in the style every STA tool settles
    on: per-stage incremental and cumulative arrival along a path, and a
    slack summary over the endpoints. *)

val render_path :
  lib:Pops_cell.Library.t -> Pops_netlist.Netlist.t -> Timing.t -> int list ->
  string
(** Per-stage incremental and cumulative arrival along a source-first
    node list (as produced by {!Timing.critical_path}), read off the
    annotated arrivals, as an ASCII table. *)

val endpoint_summary :
  lib:Pops_cell.Library.t -> ?tc:float -> Pops_netlist.Netlist.t -> Timing.t ->
  string
(** One line per primary output: worst arrival, edge, and (when [tc] is
    given) slack, sorted worst first. *)
