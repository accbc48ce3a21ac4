module Path = Pops_delay.Path
module Diag = Pops_robust.Diag
module Watch = Pops_robust.Watch

type strategy =
  | Sizing_only
  | Buffers_and_sizing
  | Restructure_and_sizing

type report = {
  tc : float;
  tmin : float;
  tmax : float;
  domain : Domains.t;
  strategy : strategy;
  path : Path.t;
  sizing : float array;
  delay : float;
  area : float;
  met : bool;
  buffers_inserted : int;
  rewrites : Restructure.rewrite list;
  pairs : int list;  (* original stage indices that received a series pair *)
  shields : Buffers.shield list;  (* branch loads diluted off-path *)
}

type candidate = {
  c_strategy : strategy;
  c_path : Path.t;
  c_sizing : float array;
  c_delay : float;
  c_area : float;
  c_buffers : int;
  c_rewrites : Restructure.rewrite list;
  c_pairs : int list;
  c_shields : Buffers.shield list;
}

let met_tc ~tc delay = delay <= tc *. (1. +. 1e-6) +. 0.02

let sizing_candidate path ~tc =
  match Sensitivity.size_for_constraint path ~tc with
  | Ok r ->
    Some
      {
        c_strategy = Sizing_only;
        c_path = path;
        c_sizing = r.Sensitivity.sizing;
        c_delay = r.Sensitivity.delay;
        c_area = r.Sensitivity.area;
        c_buffers = 0;
        c_rewrites = [];
        c_pairs = [];
        c_shields = [];
      }
  | Error (`Infeasible _) -> None

let buffer_count (r : Buffers.insertion_result) =
  (2 * List.length r.Buffers.inserted_after) + (2 * List.length r.Buffers.shields)

let buffers_candidate ~lib path ~tc =
  let r = Buffers.insert_global ~objective:(`Area_at tc) ~lib path in
  if buffer_count r = 0 then None
  else
    Some
      {
        c_strategy = Buffers_and_sizing;
        c_path = r.Buffers.path;
        c_sizing = r.Buffers.sizing;
        c_delay = r.Buffers.delay;
        c_area = r.Buffers.area;
        c_buffers = buffer_count r;
        c_rewrites = [];
        c_pairs = r.Buffers.inserted_after;
        c_shields = r.Buffers.shields;
      }

let restructure_candidate ~lib path ~tc =
  match Restructure.optimize ~lib path ~tc with
  | None -> None
  | Some o ->
    Some
      {
        c_strategy = Restructure_and_sizing;
        c_path = o.Restructure.o_path;
        c_sizing = o.Restructure.o_sizing;
        c_delay = o.Restructure.o_delay;
        c_area = o.Restructure.o_area;
        c_buffers = 0;
        c_rewrites = o.Restructure.o_rewrites;
        c_pairs = [];
        c_shields = [];
      }

(* Best-effort fallback when no alternative meets the constraint: the
   fastest structure we can build (buffers at minimum delay). *)
let fastest_candidate ~lib path =
  let r = Buffers.insert_global ~objective:`Tmin ~lib path in
  {
    c_strategy = (if buffer_count r = 0 then Sizing_only else Buffers_and_sizing);
    c_path = r.Buffers.path;
    c_sizing = r.Buffers.sizing;
    c_delay = r.Buffers.delay;
    c_area = r.Buffers.area;
    c_buffers = buffer_count r;
    c_rewrites = [];
    c_pairs = r.Buffers.inserted_after;
    c_shields = r.Buffers.shields;
  }

let pick_best ~tc candidates =
  let feasible = List.filter (fun c -> met_tc ~tc c.c_delay) candidates in
  match feasible with
  | [] -> None
  | _ :: _ ->
    Some
      (List.fold_left
         (fun best c -> if c.c_area < best.c_area then c else best)
         (List.hd feasible) (List.tl feasible))

let finalize ~tc ~bounds ~domain c =
  {
    tc;
    tmin = bounds.Bounds.tmin;
    tmax = bounds.Bounds.tmax;
    domain;
    strategy = c.c_strategy;
    path = c.c_path;
    sizing = c.c_sizing;
    delay = c.c_delay;
    area = c.c_area;
    met = met_tc ~tc c.c_delay;
    buffers_inserted = c.c_buffers;
    rewrites = c.c_rewrites;
    pairs = c.c_pairs;
    shields = c.c_shields;
  }

let run ?(allow_restructure = true) ~lib ~tc path =
  let bounds = Bounds.compute path in
  let domain = Domains.classify ~tmin:bounds.Bounds.tmin ~tc in
  let sizing () = sizing_candidate path ~tc in
  let buffers () = buffers_candidate ~lib path ~tc in
  let maybe_restructure () =
    if allow_restructure then restructure_candidate ~lib path ~tc else None
  in
  (* each per-domain alternative is an independent closed-form solve over
     the same immutable path, so evaluate them on the pool; the candidate
     list keeps its submission order, which is what [pick_best]'s
     min-area tie-breaking keys on — the choice is bit-identical at any
     domain count *)
  let generators =
    match domain with
    | Domains.Weak -> [ sizing ]
    | Domains.Medium | Domains.Hard -> [ sizing; buffers; maybe_restructure ]
    | Domains.Infeasible -> [ buffers; maybe_restructure ]
  in
  (* contained fan-out: a crashing candidate generator degrades to a
     diagnostic and drops out of the comparison instead of killing the
     run — the sizing alternative (or the fastest-structure fallback)
     still comes back.  Slot diagnostics re-emit in submission order, so
     the report is deterministic at any domain count. *)
  let slots =
    Pops_util.Pool.map_list_contained (fun gen -> gen ()) generators
  in
  let candidates =
    List.concat_map
      (fun (result, diags) ->
        Watch.emit_all diags;
        match result with
        | Ok c -> Option.to_list c
        | Error d ->
          Watch.emit d;
          [])
      slots
  in
  match pick_best ~tc candidates with
  | Some best -> finalize ~tc ~bounds ~domain best
  | None -> finalize ~tc ~bounds ~domain (fastest_candidate ~lib path)

let strategy_to_string = function
  | Sizing_only -> "sizing"
  | Buffers_and_sizing -> "buffers+sizing"
  | Restructure_and_sizing -> "restructure+sizing"

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>tc=%.1fps domain=%a strategy=%s@ tmin=%.1fps tmax=%.1fps@ \
     achieved delay=%.1fps area=%.1fum met=%b buffers=%d rewrites=%d@]"
    r.tc Domains.pp r.domain
    (strategy_to_string r.strategy)
    r.tmin r.tmax r.delay r.area r.met r.buffers_inserted
    (List.length r.rewrites)
