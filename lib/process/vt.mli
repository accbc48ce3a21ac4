(** Threshold-voltage (Vt) classes.

    Multi-Vt libraries trade speed for subthreshold leakage: a low-Vt
    (LVT) device switches fastest but leaks exponentially more than a
    standard- (SVT) or high-Vt (HVT) device of the same width.  The
    class is a property of each {e cell instance} — the optimizer swaps
    gates toward higher Vt wherever timing slack allows, never changing
    widths or topology.

    [Lvt] is the identity class: every derived factor is exactly [1.0]
    (and every threshold shift exactly [0.0]), so an all-LVT netlist is
    bit-identical to one that predates the Vt axis. *)

type t = Lvt | Svt | Hvt

val count : int
(** Number of classes, [3]. *)

val all : t array
(** [[| Lvt; Svt; Hvt |]] — ascending threshold order. *)

val to_int : t -> int
(** Dense code: [Lvt -> 0], [Svt -> 1], [Hvt -> 2].  Used to index the
    flattened per-class coefficient tables in the STA kernels. *)

val of_int : int -> t
(** Inverse of {!to_int}; raises [Invalid_argument] outside [0..2]. *)

val name : t -> string
(** ["lvt"] / ["svt"] / ["hvt"]. *)

val next : t -> t option
(** The next-higher-threshold class, if any — the direction leakage
    swaps move in. *)
