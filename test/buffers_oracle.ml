(* Reference oracle for Pops_core.Buffers.insert_global: the greedy
   without its weak-duality screen, every trial (shield batch, per-node
   shield, series pair) sized by a full [size_for_constraint] search.
   It calls only public functions, so the screened greedy must match it
   bit for bit. *)

module Path = Pops_delay.Path
module Gk = Pops_cell.Gate_kind
module Library = Pops_cell.Library
module Sens = Pops_core.Sensitivity
module Buffers = Pops_core.Buffers

let overload_ratios ~lib path =
  let fanouts = Buffers.path_fanouts path (Path.min_sizing path) in
  Array.mapi
    (fun i f ->
      let kind = path.Path.stages.(i).Path.cell.Pops_cell.Cell.kind in
      f /. Buffers.flimit ~lib ~driver:Gk.Inv ~gate:kind ())
    fanouts

let insert_pair ~lib path ~at =
  let inv = Library.inverter lib in
  let branch = path.Path.stages.(at).Path.branch in
  let cell_at = path.Path.stages.(at).Path.cell in
  let p = Path.with_stage_replaced path ~at { Path.cell = cell_at; branch = 0. } in
  let p = Path.with_stage_inserted p ~at { Path.cell = inv; branch = 0. } in
  Path.with_stage_inserted p ~at:(at + 1) { Path.cell = inv; branch }

let objective_eval ?x0 ~objective p =
  match objective with
  | `Tmin ->
    let d, x, _ = Sens.minimum_delay ?x0 p in
    (d, x, d, Path.area p x)
  | `Area_at tc -> (
    match Sens.size_for_constraint ?x0 p ~tc with
    | Ok r -> (r.Sens.area, r.Sens.sizing, r.Sens.delay, r.Sens.area)
    | Error (`Infeasible tmin) ->
      let x = (Sens.solve ?x0 p).Sens.sizing in
      (1e12 +. tmin, x, Path.delay_worst p x, Path.area p x))

let through_pair x ~at =
  let n = Array.length x in
  let next = if at + 1 < n then x.(at + 1) else x.(at) in
  Array.init (n + 2) (fun i ->
      if i <= at then x.(i)
      else if i = at + 1 then Float.cbrt (x.(at) *. x.(at) *. next)
      else if i = at + 2 then Float.cbrt (x.(at) *. next *. next)
      else x.(i - 2))

type accum = {
  a_path : Path.t;
  a_score : float;
  a_sizing : float array;
  a_delay : float;
  a_area : float;
  a_extra : float;
  a_pairs : int list;
  a_shields : Buffers.shield list;
}

let insert_global ?(objective = `Tmin) ~lib path =
  let score_of ~raw_score ~extra =
    match objective with `Tmin -> raw_score | `Area_at _ -> raw_score +. extra
  in
  let eval ?x0 p extra =
    let raw, x, d, a = objective_eval ?x0 ~objective p in
    (score_of ~raw_score:raw ~extra, x, d, a)
  in
  let score0, x0, d0, a0 = eval path 0. in
  let base =
    { a_path = path; a_score = score0; a_sizing = x0; a_delay = d0; a_area = a0;
      a_extra = 0.; a_pairs = []; a_shields = [] }
  in
  let nodes =
    Array.to_list (Array.mapi (fun i r -> (i, r)) (overload_ratios ~lib path))
    |> List.filter (fun (_, r) -> r > 1.)
    |> List.sort (fun (_, r1) (_, r2) -> compare r2 r1)
    |> List.map fst
  in
  let shield_all acc stages =
    List.fold_left
      (fun acc at ->
        match Buffers.shield_stage ~lib acc.a_path ~at with
        | None -> acc
        | Some (p', sh) ->
          { acc with a_path = p'; a_extra = acc.a_extra +. sh.Buffers.shield_area;
                     a_shields = sh :: acc.a_shields })
      acc stages
  in
  let after_shields =
    let batch = shield_all base nodes in
    if batch.a_shields = [] then base
    else begin
      let score', x', d', a' = eval ~x0:base.a_sizing batch.a_path batch.a_extra in
      if score' < base.a_score -. 1e-9 then
        { batch with a_score = score'; a_sizing = x'; a_delay = d'; a_area = a' }
      else
        List.fold_left
          (fun acc at ->
            match Buffers.shield_stage ~lib acc.a_path ~at with
            | None -> acc
            | Some (p', sh) ->
              let extra = acc.a_extra +. sh.Buffers.shield_area in
              let score', x', d', a' = eval ~x0:acc.a_sizing p' extra in
              if score' < acc.a_score -. 1e-9 then
                { a_path = p'; a_score = score'; a_sizing = x'; a_delay = d';
                  a_area = a'; a_extra = extra; a_pairs = acc.a_pairs;
                  a_shields = sh :: acc.a_shields }
              else acc)
          base nodes
    end
  in
  let pair_candidates =
    List.filteri (fun rank _ -> rank < 8) nodes |> List.sort (fun a b -> compare b a)
  in
  let step acc at =
    let p' = insert_pair ~lib acc.a_path ~at in
    let score', x', d', a' = eval ~x0:(through_pair acc.a_sizing ~at) p' acc.a_extra in
    if score' < acc.a_score -. 1e-9 then
      { acc with a_path = p'; a_score = score'; a_sizing = x'; a_delay = d';
                 a_area = a'; a_pairs = at :: acc.a_pairs }
    else acc
  in
  let final = List.fold_left step after_shields pair_candidates in
  {
    Buffers.path = final.a_path;
    sizing = final.a_sizing;
    delay = final.a_delay;
    area = final.a_area +. final.a_extra;
    inserted_after = List.rev final.a_pairs;
    shields = List.rev final.a_shields;
  }

(* the first field in which two insertion results differ, bit for bit:
   the stage kinds and branches, every size, delay, area, pair and
   shield; [None] when they are the same *)
let diff (r : Buffers.insertion_result) (o : Buffers.insertion_result) =
  let stages p =
    Array.map
      (fun st -> (Gk.name st.Path.cell.Pops_cell.Cell.kind, Int64.bits_of_float st.Path.branch))
      p.Path.stages
  in
  let bits = Array.map Int64.bits_of_float in
  let shields l =
    List.map
      (fun sh ->
        ( sh.Buffers.stage,
          bits [| sh.Buffers.b1; sh.Buffers.b2; sh.Buffers.shield_area |] ))
      l
  in
  let fields =
    [
      ("stages", stages r.Buffers.path = stages o.Buffers.path);
      ("sizing", bits r.Buffers.sizing = bits o.Buffers.sizing);
      ("delay", Int64.bits_of_float r.Buffers.delay = Int64.bits_of_float o.Buffers.delay);
      ("area", Int64.bits_of_float r.Buffers.area = Int64.bits_of_float o.Buffers.area);
      ("pairs", r.Buffers.inserted_after = o.Buffers.inserted_after);
      ("shields", shields r.Buffers.shields = shields o.Buffers.shields);
    ]
  in
  Option.map fst (List.find_opt (fun (_, same) -> not same) fields)
