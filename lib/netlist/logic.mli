(** Logic evaluation and equivalence checking of netlists.

    Used to prove that structural transforms (buffering, De Morgan
    restructuring) preserve the circuit function: exhaustively for up to
    12 primary inputs, by seeded random vectors beyond that.

    Every evaluation is one bit-parallel sweep over the netlist's
    {!Netlist.csr} snapshot, 64 vectors per word, its words per node in
    one flat buffer: one word per node for {!eval_packed}, up to eight
    (512 vectors) for {!equivalent}.  A cyclic netlist raises the
    {!Pops_robust.Diag.Fatal} of {!Netlist.csr}. *)

val eval : Netlist.t -> bool array -> (int * bool) list
(** [eval t inputs] evaluates the netlist for one input vector (ordered
    as {!Netlist.inputs}); returns the primary-output values in
    designation order.
    @raise Invalid_argument if the vector length differs from the input
    count. *)

val eval_packed : Netlist.t -> int64 array -> (int * int64) list
(** Bit-parallel evaluation: input [i]'s 64 bits are 64 independent
    vectors, evaluated simultaneously with word-wide boolean algebra.
    Returns the primary outputs' packed values.  {!equivalent} runs the
    same sweep on several words per node. *)

val word_of_kind : Pops_cell.Gate_kind.t -> int64 array -> int64
(** The bit-parallel boolean function of a gate: the packed counterpart
    of {!Pops_cell.Gate_kind.eval}, applied to 64 vectors at once.  The
    sweep evaluates gates with this same function; the property suite
    checks it bit-for-bit against the scalar evaluation. *)

(** {1 Logic cones}

    Local equivalence: instead of comparing whole netlists, compare the
    transitive fan-in cone of one node — the granularity at which the
    restructuring transforms operate. *)

val cone_limit : int
(** Maximum cone support for truth-table construction (16). *)

val cone_support : Netlist.t -> int -> int list
(** Primary-input ids in the transitive fan-in of a node, ascending.
    @raise Invalid_argument on an unknown id. *)

val cone_function : Netlist.t -> int -> int list * int64 array
(** [(support, table)]: the node's truth table over its sorted support,
    packed 64 assignments per word — bit [p land 63] of [table.(p lsr 6)]
    is the node's value under assignment [p], where bit [i] of [p]
    assigns [List.nth support i].  Tail bits beyond [2^k] are zero.
    @raise Invalid_argument if the support exceeds {!cone_limit}. *)

val cone_equivalent : Netlist.t -> int -> Netlist.t -> int -> (unit, string) result
(** [cone_equivalent a na b nb] compares the logic functions of two
    nodes' cones over the {e union} of their supports, matching primary
    inputs by position (so it works across independently built
    netlists).  The error names the first mismatching assignment.
    Returns [Error] (not an exception) when the union support exceeds
    {!cone_limit}. *)

val equivalent :
  ?vectors:int -> ?seed:int64 -> Netlist.t -> Netlist.t -> (unit, string) result
(** [equivalent a b] checks that both netlists compute the same function
    on the same number of inputs and outputs — exhaustively when the
    input count allows, otherwise with [vectors] (default 512) seeded
    random vectors.  Inputs are matched by position, outputs in
    designation order.  Each netlist is swept once per eight chunks of
    64 vectors.  The error message names the first mismatching vector:
    the lowest chunk, then the lowest lane. *)

val signal_probabilities : Netlist.t -> ?input_prob:float -> unit -> float array
(** One forward pass: indexed by node id, each live node's probability of
    being 1 when every primary input is 1 with probability [input_prob]
    (default 0.5), under the standard independence approximation (nan
    at dead ids).  The power estimate's switching activity is
    [2 p (1 - p)]. *)
