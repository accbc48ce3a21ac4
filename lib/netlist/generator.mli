(** Seeded synthetic benchmark circuits.

    The paper evaluates on ISCAS'85 netlists placed and extracted in a
    proprietary 0.25 um flow; those artifacts are not available, so the
    suite is substituted by deterministic synthetic circuits (DESIGN.md,
    "Substitutions").  Each circuit is generated around a {e spine}: a
    chain of exactly [path_gates] inverting gates that is the circuit's
    unique longest path by construction (side gates take their fan-ins
    from the spine and the inputs but never feed other gates, so they
    add branch loading without adding depth).  Everything is derived
    from the profile name's hash — the same profile always yields the
    same circuit, on any machine. *)

type profile = {
  name : string;
  path_gates : int;  (** spine length — the paper's per-circuit gate count *)
  total_gates : int;  (** spine + side gates *)
  out_load : float;  (** terminal load on the spine output, fF *)
  side_load : float;
      (** mean off-path fan-out load attached to a spine node, in
          multiples of the minimum input capacitance *)
}

val make_profile :
  ?total_gates:int -> ?out_load:float -> ?side_load:float ->
  name:string -> path_gates:int -> unit -> profile
(** [total_gates] defaults to [3 * path_gates]; [out_load] to 60 fF;
    [side_load] to 4 (reference loads). *)

val generate : Pops_process.Tech.t -> profile -> Netlist.t * int list
(** The circuit and its spine (gate ids, input side first).  The result
    satisfies {!Netlist.validate} and the spine realises
    {!Netlist.depth}. *)

type scale_shape =
  | Grid  (** layered datapath: [~ 3 log2 gates] layers of equal width *)
  | Spine
      (** one maximally deep chain (depth = gate count) — the
          Stack_overflow stress shape *)
  | Iscas  (** the reference spine+side shape with the spine depth capped *)

val scale_shape_name : scale_shape -> string

val generate_scale :
  Pops_process.Tech.t -> name:string -> gates:int -> shape:scale_shape ->
  Netlist.t
(** A full-chip scale benchmark circuit with exactly [gates] gates,
    deterministic in [name].  Generation is streamed — per-gate constant
    work on dense arrays — so million-gate circuits build in linear time
    and memory.  Every sink-less gate is promoted to a primary output.
    @raise Invalid_argument when [gates < 8]. *)
