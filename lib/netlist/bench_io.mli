(** ISCAS [.bench] netlist format.

    The format the ISCAS'85/'89 benchmarks are distributed in:

    {v
    # c17
    INPUT(1)
    INPUT(2)
    OUTPUT(22)
    10 = NAND(1, 3)
    22 = NAND(10, 16)
    v}

    Reading maps the format onto the library's primitive cells:
    - [NOT]/[INV] → inverter, [BUFF]/[BUF] → buffer;
    - [NAND]/[NOR] up to 4 inputs map directly; wider gates are
      decomposed into balanced trees;
    - [AND]/[OR] become the inverting primitive plus an inverter;
    - [XOR]/[XNOR] map directly for 2 inputs, wider ones become trees;
    - [DFF] is split combinationally, as is conventional for these
      benchmarks: its output becomes a pseudo primary input, its input a
      pseudo primary output.

    A sizing annotation extension keeps gate sizes through round trips:
    a trailing [# cin=<fF>] on a gate line sets that gate's input
    capacitance, and {!to_string} emits it for non-minimum gates. *)

type names = (string * int) list
(** bench-file signal name → netlist node id (the id of the node that
    {e drives} the signal). *)

val parse_diag : Pops_process.Tech.t -> ?out_load:float -> string ->
  (Netlist.t * names, Pops_robust.Diag.t) result
(** Parse a [.bench] text.  [out_load] (default [4 * cmin], fF) is the
    terminal load attached to every [OUTPUT].  Errors are structured
    diagnostics: [Bench_syntax] with a [line N] subject on malformed
    statements, [Bench_truncated] when the error sits on the last
    statement of the input with an unclosed call (a file cut off
    mid-gate), [Netlist_cycle] naming the actual combinational loop
    through the .bench signal names.

    The parse is linear in the text whatever order its statements are
    in.  Node ids follow the sources (INPUTs and DFF outputs, in line
    order), then the gates in (pass, line) order: the order repeated
    line-order passes over the not-yet-built gates would build them. *)

val parse_o : Pops_process.Tech.t -> ?out_load:float -> string ->
  (Netlist.t * names) Pops_robust.Outcome.t
(** {!parse_diag} as an {!Pops_robust.Outcome}: a netlist that parses
    but carries quality warnings from {!Netlist.validate_diags} (e.g.
    zero-fanout gates) comes back [Degraded] with those diagnostics
    attached, named through the signal names.  Both run the validation
    sweep once: its first error fails the parse, its warnings are the
    degradation. *)

val parse_file_o : Pops_process.Tech.t -> ?out_load:float -> string ->
  (Netlist.t * names) Pops_robust.Outcome.t
(** {!parse_o} on a file; an unreadable path is [Failed] with an
    [Invalid_input] diagnostic instead of a raised [Sys_error]. *)

val name_fn : names -> int -> string
(** [name_fn names] renders node ids as their signal names, for
    diagnostics ({!Netlist.validate_diags}'s [name]) and printing: a
    node with several names gets the last one in list order, an unnamed
    node [n<id>]. *)

val to_string : ?names:names -> Netlist.t -> string
(** Print a netlist in [.bench] syntax.  [names] (as returned by
    {!parse_diag}) preserves signal names; unnamed nodes get [n<id>].
    AOI21/OAI21 are printed as the extension operators [AOI21]/[OAI21],
    which {!parse_diag} accepts back — round trips preserve structure,
    sizing and wire annotations. *)

val write_file : ?names:names -> Netlist.t -> string -> unit
