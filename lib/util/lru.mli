(** Bounded least-recently-used cache with observability counters.

    A polymorphic key/value store that holds at most [capacity] entries
    and evicts the least-recently-{e used} one on overflow — both
    {!find} hits and {!put}s refresh an entry's recency.  The serving
    engine's parsed-netlist cache ([Pops_serve.Cache]) is built on it:
    a long-lived process holds a fixed working set, and {!stats} shows
    how well it serves.

    The structure is {e not} synchronised: concurrent users wrap every
    operation in their own mutex, which also lets a caller make compound
    find-or-compute sequences atomic. *)

type ('k, 'v) t

type stats = {
  hits : int;
  misses : int;  (** {!find}s that came back empty *)
  evictions : int;  (** entries displaced by capacity *)
  length : int;  (** current entry count *)
  capacity : int;
}

val create : capacity:int -> unit -> ('k, 'v) t
(** @raise Invalid_argument when [capacity < 1]. *)

val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** A hit refreshes the entry to most-recently-used and counts in
    {!stats}; a miss counts too. *)

val put : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or replace, making the entry most-recently-used; evicts the
    least-recently-used entry when the cache is full. *)

val clear : ('k, 'v) t -> unit
(** Drop every entry.  Counters are preserved. *)

val stats : ('k, 'v) t -> stats
