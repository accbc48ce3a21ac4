module Path = Pops_delay.Path

type t = {
  tmin : float;
  tmax : float;
  sizing_tmin : float array;
  beta_tmin : float;
}

(* characterisations run in this process: what [cache_stats] reports as
   misses, for the benchmark driver and replay *)
let characterised = Atomic.make 0

let set_cache_capacity _ = ()

let cache_stats () =
  { Pops_util.Lru.hits = 0; misses = Atomic.get characterised; evictions = 0; length = 0;
    capacity = 0 }

let compute path =
  Atomic.incr characterised;
  let x_min = Path.min_sizing path in
  let tmax = Path.delay_worst path x_min in
  let tmin, sizing_tmin, beta_tmin = Sensitivity.minimum_delay path in
  { tmin; tmax; sizing_tmin; beta_tmin }

let tmin path = (compute path).tmin

let tmax path = Path.delay_worst path (Path.min_sizing path)

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
