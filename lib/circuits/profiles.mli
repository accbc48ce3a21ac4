(** The paper's benchmark suite, as synthetic-circuit profiles.

    Per-circuit data transcribed from the paper: the sized gate count
    (Table 1, "Gate nb" — the length of the critical path POPS sizes),
    the reference CPU times (Table 1), and the reference minimum delays
    with plain sizing and with buffer insertion (Table 3).  The circuits
    themselves are materialised by {!Pops_netlist.Generator} — see
    DESIGN.md, "Substitutions". *)

type t = {
  name : string;
  path_gates : int;  (** Table 1: gates on the sized path *)
  paper_cpu_pops_ms : float;  (** Table 1, POPS column *)
  paper_cpu_amps_ms : float;  (** Table 1, AMPS column *)
  paper_tmin_sizing_ns : float option;  (** Table 3, sizing row *)
  paper_tmin_buff_ns : float option;  (** Table 3, buff row *)
}

val all : t list
(** Adder16, fpd, c432 … c7552 in the paper's order. *)

val find : string -> t option

val fig2_suite : t list
(** The circuits shown in Fig. 2 (Tmin comparison). *)

val fig4_suite : t list
(** The circuits shown in Fig. 4 (area at 1.2 Tmin). *)

val table4_suite : t list
(** c1355, c1908, c5315, c7552 — Table 4's restructuring circuits. *)

val circuit : Pops_process.Tech.t -> t -> Pops_netlist.Netlist.t * int list
(** Materialise (deterministic per name): the netlist and its critical
    spine. *)
