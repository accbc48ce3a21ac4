(** Minimal JSON for the NDJSON job protocol.

    The serving engine speaks one JSON object per line; this module is
    the whole dependency — a small recursive-descent parser and a
    deterministic printer, no external library.  It covers the full
    scalar/array/object grammar of RFC 8259 with two deliberate
    simplifications: numbers are always [float]s (the protocol's
    integers are small and exact in a double), and [\u] escapes outside
    the BMP-ASCII range are passed through byte-wise rather than
    transcoded ([.bench] payloads are plain ASCII). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** insertion order preserved *)

val parse : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed; trailing
    garbage is an error).  Arrays and objects nest at most 512 deep;
    deeper input is an error too, found in time linear in its prefix.
    The error names the byte offset. *)

val to_string : t -> string
(** Compact (no whitespace), fields in the order given.  Numbers print
    via [%.12g] — lossless for the protocol's rounded metrics — so equal
    values always render to equal strings. *)

(** Accessors: total functions returning [option] so job parsing can
    distinguish "absent" from "wrong type" at its own granularity. *)

val member : string -> t -> t option
(** Field of an object ([None] on non-objects too). *)

val to_float : t -> float option
val to_int : t -> int option
(** [Num] with integral value only. *)

val to_str : t -> string option
val to_bool : t -> bool option

val obj_keys : t -> string list
(** Keys of an object in order, [] for non-objects. *)
