(** Ambient diagnostic collection (per-domain collector stack).

    {!collect} installs a collector for the duration of a call and
    returns everything {!emit}ted below it, in emission order.
    Emission with no collector installed is a no-op — the plain,
    exception-based entry points pay one domain-local read and stay
    allocation-free on the healthy path.

    Collectors are domain-local: work shipped to pool worker domains
    must collect on the worker and hand the list back with the result
    (see {!Pops_util.Pool.map_list_contained}), which also keeps the
    merged order deterministic (submission order, not completion
    order). *)

val collect : (unit -> 'a) -> 'a * Diag.t list
(** Run [f] under a fresh innermost collector; nested {!collect}s
    capture exclusively (the inner caller decides what to re-{!emit}). *)

val emit : Diag.t -> unit
val emit_all : Diag.t list -> unit
