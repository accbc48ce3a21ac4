(** Structural netlist rewrites: buffer insertion and De Morgan
    restructuring at the circuit level.

    These are the netlist counterparts of the path-level operations in
    [Pops_core]: the optimizer reasons on extracted bounded paths, and
    once it decides where buffers or rewrites go, these transforms apply
    the surgery to the real circuit.  Every transform preserves the logic
    function ({!Logic.equivalent} — property-tested). *)

val insert_buffer :
  ?cin1:float -> ?cin2:float -> Netlist.t -> after:int -> int * int
(** [insert_buffer t ~after] inserts an inverter pair on node [after]'s
    output: all existing consumers (and its primary-output designation)
    move to the second inverter.  Returns the two inverter ids
    [(first, second)].  Sizes default to the process minimum. *)

val insert_buffer_for :
  ?cin1:float -> ?cin2:float -> Netlist.t -> after:int -> only:int list -> int * int
(** Like {!insert_buffer} but shields only the listed consumers — the
    off-path load-dilution form. *)

val de_morgan : Netlist.t -> int -> (int, string) result
(** [de_morgan t id] rewrites a NAND/NOR gate into its dual: the gate's
    kind is replaced, inverters are added on every fan-in, and an
    inverter is added on the output (consumers move to it).  When a
    fan-in is itself a single-fanout inverter it is absorbed instead of
    double-inverted.  Returns the output-inverter id, or [Error] when
    the node has no dual. *)
