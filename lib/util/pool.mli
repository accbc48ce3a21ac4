(** Fixed-size domain pool with deterministic fan-out.

    OCaml 5 gives the runtime true shared-memory parallelism; this module
    packages it behind a deliberately narrow interface: a fixed set of
    worker domains plus [parallel_map] / [parallel_reduce] combinators
    whose results are {e bit-identical} to their sequential equivalents.

    The determinism contract:
    - results are stored (and reduced) in {e submission order}, never in
      completion order, so scheduling cannot reorder floating-point
      combines;
    - the mapped function must be pure with respect to observable state
      (internal memo tables guarded by locks are fine — see
      [Pops_core.Buffers.flimit]);
    - an exception raised by a worker is re-raised at the call site; when
      several tasks fail, the one with the {e smallest index} wins, which
      is again what the sequential order would have reported first.

    Nesting is safe: the calling domain always participates in its own
    fan-out and never blocks on the shared queue, so a task that itself
    calls [parallel_map] cannot deadlock the pool — idle workers only add
    throughput. *)

type t
(** A pool handle: [size] domains total (the caller counts as one, so a
    pool of size [n] keeps [n - 1] worker domains parked on a queue). *)

val create : ?size:int -> unit -> t
(** [create ~size ()] builds a pool.  [size] defaults to the environment
    override [POPS_DOMAINS] when set, else
    [Domain.recommended_domain_count ()].  A size of 1 spawns no domains
    and makes every combinator run sequentially in the caller. *)

val size : t -> int
(** Total parallelism of the pool (including the calling domain). *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent; the pool degrades to
    sequential execution afterwards. *)

val default : unit -> t
(** The process-wide shared pool, created lazily on first use with
    [create ()].  All library entry points fan out on this pool unless
    given an explicit one. *)

val default_size : unit -> int
(** [size (default ())] without forcing worker creation when the
    configured size is 1. *)

val set_default_size : int -> unit
(** Replace the shared pool with one of the given size (shutting the old
    one down).  Used by benchmarks and the determinism test-suite to
    compare domain counts inside one process; normal programs configure
    the pool once via [POPS_DOMAINS]. *)

val parallel_map : ?pool:t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map f xs] is [Array.map f xs] computed on the pool.
    Results land at the index of their input regardless of which domain
    ran them.  Exceptions re-raise at the call site (smallest failing
    index wins); remaining tasks still run to completion first. *)

val map_list : ?pool:t -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map] for lists, preserving order. *)

val parallel_reduce :
  ?pool:t -> map:('a -> 'b) -> combine:('acc -> 'b -> 'acc) -> init:'acc ->
  'a array -> 'acc
(** [parallel_reduce ~map ~combine ~init xs] maps on the pool, then folds
    the results {e sequentially in submission order} — the reduction is
    deterministic even when [combine] is not associative (floating-point
    sums, first-strictly-better selections). *)

val parallel_map_contained :
  ?pool:t -> ('a -> 'b) -> 'a array ->
  (('b, Pops_robust.Diag.t) result * Pops_robust.Diag.t list) array
(** Contained fan-out: like {!parallel_map}, but a task that raises
    degrades its own slot to [Error diag] instead of re-raising at the
    call site — one crashing candidate cannot kill the whole fan-out.
    Each slot also carries the diagnostics the task emitted
    ({!Pops_robust.Watch}) on whichever domain ran it, so the caller can
    re-emit them in deterministic submission order.  The
    [pool.raise] fault-injection point fires here.  Exceptions become
    {!Pops_robust.Diag.Pool_task_failed} diagnostics (a
    {!Pops_robust.Diag.Fatal} payload passes through unchanged). *)

val map_list_contained :
  ?pool:t -> ('a -> 'b) -> 'a list ->
  (('b, Pops_robust.Diag.t) result * Pops_robust.Diag.t list) list
(** {!parallel_map_contained} for lists, preserving order. *)
