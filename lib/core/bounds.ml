module Path = Pops_delay.Path
module Diag = Pops_robust.Diag
module Watch = Pops_robust.Watch

type t = {
  tmin : float;
  tmax : float;
  sizing_tmin : float array;
  beta_tmin : float;
}

(* Characterising a path costs the Tmin solves, and the protocol asks
   for the same path's bounds repeatedly — feasibility check, then the
   constraint sizer, then reporting.  Memoize by the path's construction
   uid: a Path.t is immutable and every edit/flip makes a fresh uid, so
   a hit is always exact.  The table is mutex-guarded for the PR 2
   domain pool; the solve itself runs outside the lock (a racing
   duplicate compute is deterministic, so last-write-wins is fine).

   The memo is a bounded LRU: path uids are never reused, so in a
   one-shot CLI run stale entries were only a space concern — but in the
   long-lived serving engine an ever-growing (or periodically
   reset-to-empty) table is respectively a leak or a recurring cold
   start.  The LRU keeps the hot working set pinned at a fixed size;
   [set_cache_capacity] lets the server scale it to its window. *)
(* Entries carry the diagnostics their solves reported so that a miss
   can both cache and re-emit them; a hit deliberately does NOT re-emit
   (the characterisation was not re-run, and replaying the same warning
   on every feasibility probe would drown real signal). *)
let default_cache_capacity = 256

let cache : (int, t * Diag.t list) Pops_util.Lru.t =
  Pops_util.Lru.create ~capacity:default_cache_capacity ()

let cache_lock = Mutex.create ()

let set_cache_capacity c =
  Mutex.protect cache_lock (fun () -> Pops_util.Lru.set_capacity cache c)

let cache_stats () = Mutex.protect cache_lock (fun () -> Pops_util.Lru.stats cache)

let clear_cache ?(reset_stats = false) () =
  Mutex.protect cache_lock (fun () ->
      Pops_util.Lru.clear cache;
      if reset_stats then Pops_util.Lru.reset_stats cache)

let compute_uncached path =
  Watch.collect (fun () ->
      let x_min = Path.min_sizing path in
      let tmax = Path.delay_worst path x_min in
      let tmin, sizing_tmin, beta_tmin = Sensitivity.minimum_delay path in
      { tmin; tmax; sizing_tmin; beta_tmin })

let compute_diags path =
  let key = Path.uid path in
  let hit = Mutex.protect cache_lock (fun () -> Pops_util.Lru.find cache key) in
  match hit with
  | Some (b, diags) -> (b, diags)
  | None ->
    let b, diags = compute_uncached path in
    (* re-emit to the ambient collector: Watch.collect above swallowed
       them into the cache entry *)
    Watch.emit_all diags;
    Mutex.protect cache_lock (fun () -> Pops_util.Lru.put cache key (b, diags));
    (b, diags)

let compute path = fst (compute_diags path)

let tmin path = (compute path).tmin

let tmax path =
  let key = Path.uid path in
  (* a peek, not a find: an absent entry is served by two cheap delay
     evaluations, not a solve, so it must not count as a cache miss *)
  let hit = Mutex.protect cache_lock (fun () -> Pops_util.Lru.peek cache key) in
  match hit with
  | Some (b, _) -> b.tmax
  | None -> Path.delay_worst path (Path.min_sizing path)

type trace_point = { sum_cin_ratio : float; delay : float }

let tmin_trace path =
  let iterates = Sensitivity.solve_trace ~a:0. path in
  List.map
    (fun x ->
      { sum_cin_ratio = Path.sum_cin_ratio path x; delay = Path.delay_worst path x })
    iterates

let feasible path ~tc = tc >= tmin path

let verify_stationary ?(tol = 5e-3) ?(a = 0.) ?(beta = 0.5) path sizing =
  let x = Path.clamp_sizing path sizing in
  let k = path.Path.kernel in
  (* the exact stationarity condition is on the beta-weighted polarity
     gradient that the solver minimised, less the constant-sensitivity
     target a * aw_j *)
  let flipped = Path.with_input_edge path (Pops_delay.Edge.flip path.Path.input_edge) in
  let g1 = Path.gradient path x and g2 = Path.gradient flipped x in
  let ok = ref true in
  for j = 1 to Path.length path - 1 do
    let at_bound =
      x.(j) <= k.Path.lo.(j) *. (1. +. 1e-6) || x.(j) >= k.Path.hi.(j) *. (1. -. 1e-6)
    in
    let g = (beta *. g1.(j)) +. ((1. -. beta) *. g2.(j)) -. (a *. k.Path.aw.(j)) in
    if (not at_bound) && Float.abs g > tol then ok := false
  done;
  !ok
