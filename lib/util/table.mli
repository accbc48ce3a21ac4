(** ASCII table rendering for the benchmark harness.

    The bench executable prints every reproduced paper table/figure as a
    plain-text table; this module keeps the layout logic in one place. *)

type align = Left | Right

type t
(** A table under construction. *)

val create : ?title:string -> (string * align) list -> t
(** [create ~title columns] starts a table with the given header cells and
    per-column alignment. *)

val add_row : t -> string list -> unit
(** Appends a row.  Rows shorter than the header are right-padded with
    empty cells; longer rows are truncated.  *)

val render : t -> string
(** Renders the table; every call reflects all rows added so far. *)

val print : t -> unit
(** [render] then print to stdout followed by a newline. *)

val cell_f : ?decimals:int -> float -> string
(** Format a float cell with [decimals] fraction digits (default 2). *)
