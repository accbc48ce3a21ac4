module Path = Pops_delay.Path
module Gk = Pops_cell.Gate_kind
module Library = Pops_cell.Library
module N = Pops_util.Numerics

type buffer_style = Single_inverter | Inverter_pair

let buffer_kinds = function
  | Single_inverter -> [ Gk.Inv ]
  | Inverter_pair -> [ Gk.Inv; Gk.Inv ]

(* Both structures include the (identical) driver stage, so the A/B delay
   difference isolates the effect of buffering gate [gate]'s output. *)
let structure_path ?input_edge ~lib ~driver ~gate ~cload extra_kinds =
  Path.of_kinds ?input_edge ~lib ~c_out:cload ([ driver; gate ] @ extra_kinds)

(* Characterisation compares worst-polarity delays: buffering must rescue
   the gate's critical (slow) edge, which is what the paper's per-gate
   limits capture. *)
let delay_direct ~lib ~driver ~gate ~gate_cin ~cload =
  let p = structure_path ~lib ~driver ~gate ~cload [] in
  let x = Path.min_sizing p in
  x.(1) <- gate_cin;
  Path.delay_worst p x

let delay_buffered ?(style = Inverter_pair) ~lib ~driver ~gate ~gate_cin ~cload () =
  let p = structure_path ~lib ~driver ~gate ~cload (buffer_kinds style) in
  let x0 = Path.min_sizing p in
  x0.(1) <- gate_cin;
  (* gate keeps its size; only the buffer stages are free *)
  let x = (Sensitivity.solve ~frozen:[ 1 ] ~x0 p).sizing in
  (Path.delay_worst p x, x)

(* Flimit is a pure function of (process, style, driver, gate); it is
   queried once per path stage, so memoise it.  The table is shared by
   every pool domain evaluating buffer candidates, hence the lock.  A
   miss computes under the lock (a few short solves), so each key is
   characterised exactly once and the sweep counter reads the same at
   any domain count. *)
let flimit_cache : (string * string * string * string, float) Hashtbl.t =
  Hashtbl.create 64

let flimit_lock = Mutex.create ()

let flimit_uncached ?(style = Inverter_pair) ~lib ~driver ~gate () =
  let tech = Library.tech lib in
  let gate_cin = 4. *. tech.Pops_process.Tech.cmin in
  let gain f =
    let cload = f *. gate_cin in
    let direct = delay_direct ~lib ~driver ~gate ~gate_cin ~cload in
    let buffered, _ = delay_buffered ~style ~lib ~driver ~gate ~gate_cin ~cload () in
    direct -. buffered
  in
  let f_lo = 1.2 and f_hi = 200. in
  if gain f_hi <= 0. then Float.infinity
  else if gain f_lo >= 0. then f_lo
  else N.bisect ~caller:"flimit" ~tol:1e-3 ~f:gain ~lo:f_lo ~hi:f_hi ()

let flimit ?(style = Inverter_pair) ~lib ~driver ~gate () =
  let style_name =
    match style with Single_inverter -> "inv1" | Inverter_pair -> "inv2"
  in
  let key =
    ( (Library.tech lib).Pops_process.Tech.name,
      style_name,
      Gk.name driver,
      Gk.name gate )
  in
  Mutex.protect flimit_lock (fun () ->
      match Hashtbl.find_opt flimit_cache key with
      | Some v -> v
      | None ->
        let v = flimit_uncached ~style ~lib ~driver ~gate () in
        Hashtbl.add flimit_cache key v;
        v)

let characterize_library ?style ~lib ~driver kinds =
  List.map (fun gate -> (gate, flimit ?style ~lib ~driver ~gate ())) kinds

let path_fanouts path sizing =
  let x = Path.clamp_sizing path sizing in
  let loads = Path.loads path x in
  Array.mapi (fun i l -> l /. x.(i)) loads

(* Identification must happen at the minimum-drive configuration (the
   paper's C_REF initial solution): once the optimizer has sized a path,
   fan-outs self-equalise and an overloaded node hides inside an inflated
   gate.  The [sizing] argument is therefore ignored for the fan-out
   computation and kept for API stability; the ratio F / Flimit ranks the
   overload severity. *)
let overload_ratios ~lib path =
  let fanouts = path_fanouts path (Path.min_sizing path) in
  Array.mapi
    (fun i f ->
      let kind = path.Path.stages.(i).Path.cell.Pops_cell.Cell.kind in
      let limit = flimit ~lib ~driver:Gk.Inv ~gate:kind () in
      f /. limit)
    fanouts

let critical_nodes ~lib path _sizing =
  let ratios = overload_ratios ~lib path in
  let crit = ref [] in
  Array.iteri (fun i r -> if r > 1. then crit := i :: !crit) ratios;
  List.rev !crit

type shield = { stage : int; b1 : float; b2 : float; shield_area : float }

type insertion_result = {
  path : Path.t;
  sizing : float array;
  delay : float;
  area : float;
  inserted_after : int list;
  shields : shield list;
}

(* Insert an inverter pair after stage [at]: the pair shields stage [at]
   from both its branch load and the downstream gate, so the branch moves
   to the second buffer inverter. *)
let insert_pair ~lib path ~at =
  let inv = Library.inverter lib in
  let branch = path.Path.stages.(at).Path.branch in
  let cell_at = path.Path.stages.(at).Path.cell in
  let p = Path.with_stage_replaced path ~at { Path.cell = cell_at; branch = 0. } in
  let p = Path.with_stage_inserted p ~at { Path.cell = inv; branch = 0. } in
  Path.with_stage_inserted p ~at:(at + 1) { Path.cell = inv; branch }

(* Load dilution (Fig. 5 / Section 4.1 discussion): an off-path inverter
   pair takes over the branch load, so the on-path stage sees only the
   first shield inverter.  Its size follows a fixed electrical-effort
   rule; the shield's own delay is off the critical path. *)
let shield_stage ?(fanout_target = 4.) ~lib path ~at =
  let cmin = (Library.tech lib).Pops_process.Tech.cmin in
  let st = path.Path.stages.(at) in
  let branch = st.Path.branch in
  let b2 = Float.max cmin (branch /. fanout_target) in
  let b1 = Float.max cmin (b2 /. fanout_target) in
  if b1 >= branch then None
  else begin
    let inv = Library.inverter lib in
    let shield_area =
      Pops_cell.Cell.area inv ~cin:b1 +. Pops_cell.Cell.area inv ~cin:b2
    in
    let p =
      Path.with_stage_replaced path ~at { Path.cell = st.Path.cell; branch = b1 }
    in
    Some (p, { stage = at; b1; b2; shield_area })
  end

(* the objective at a trial: score, sizing, delay, path area, and the
   answer's multipliers (a, beta) when they can bound the next trial *)
let objective_eval ?x0 ~objective p =
  match objective with
  | `Tmin ->
    (* shared Tmin definition so the semantics agree with Bounds *)
    let d, x, _ = Sensitivity.minimum_delay ?x0 p in
    (d, x, d, Path.area p x, None)
  | `Area_at tc -> (
    match Sensitivity.size_for_constraint ?x0 p ~tc with
    | Ok r ->
      (* the Tmin point (a = 0) bounds nothing *)
      let dual = if r.Sensitivity.a < 0. then Some (r.Sensitivity.a, r.Sensitivity.beta) else None in
      (r.Sensitivity.area, r.Sensitivity.sizing, r.Sensitivity.delay, r.Sensitivity.area, dual)
    | Error (`Infeasible tmin) ->
      (* infeasible: objective value = huge + tmin so that lower tmin
         still compares better among infeasible options *)
      let x = (Sensitivity.solve ?x0 p).sizing in
      (1e12 +. tmin, x, Path.delay_worst p x, Path.area p x, None))

(* a trial's warm start: the incumbent's sizing [x] mapped onto the path
   with an inverter pair after stage [at], the pair at the geometric
   steps between stage [at] and the stage it drove *)
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
  a_score : float;  (* objective value including shield area *)
  a_sizing : float array;
  a_delay : float;
  a_area : float;  (* path area only *)
  a_extra : float;  (* shield area *)
  a_pairs : int list;
  a_shields : shield list;
  a_dual : (float * float) option;  (* multipliers (a, beta) of [a_sizing] *)
}

let max_insertion_trials = 8

(* trials the greedy weighs, and those of them the duality screen settles
   without a constraint search; atomic, since the protocol's candidates
   run on pool domains *)
let trial_counter = Atomic.make 0

let screen_counter = Atomic.make 0

let trials_evaluated () = Atomic.get trial_counter

let trials_screened () = Atomic.get screen_counter

let insert_global ?(objective = `Tmin) ~lib path =
  (* the shield area participates in the `Area_at objective but not in
     `Tmin (where the score is the delay) *)
  let score_of ~raw_score ~extra =
    match objective with `Tmin -> raw_score | `Area_at _ -> raw_score +. extra
  in
  let eval ?x0 p extra =
    let raw, x, d, a, dual = objective_eval ?x0 ~objective p in
    (score_of ~raw_score:raw ~extra, x, d, a, dual)
  in
  (* Weak duality (docs/model.md §4): at the incumbent's multipliers, a
     trial's Lagrangian minimum is at most the area of any sizing the
     constraint search can return for it, so a bound reaching the
     incumbent's score proves the trial is rejected without the search.
     The margin covers the bound solve's tolerance. *)
  let cannot_pay acc ~x0 cand =
    match (objective, acc.a_dual) with
    | `Area_at tc, Some (a, beta) -> (
      match Sensitivity.dual_bound ~x0 cand.a_path ~a ~beta ~tc with
      | Some lb -> lb +. cand.a_extra >= acc.a_score -. 1e-9 +. (1e-7 *. acc.a_score)
      | None -> false)
    | _ -> false
  in
  (* the candidate [cand] (its path, shield area and moves) against the
     incumbent [acc], sized from [x0] (a shield keeps the incumbent's
     stages, a pair is mapped through {!through_pair}): [cand] sized, when
     it improves the score *)
  let trial acc ~x0 cand =
    Atomic.incr trial_counter;
    if cannot_pay acc ~x0 cand then begin
      Atomic.incr screen_counter;
      None
    end
    else begin
      let score', x', d', a', dual = eval ~x0 cand.a_path cand.a_extra in
      if score' < acc.a_score -. 1e-9 then
        Some { cand with a_score = score'; a_sizing = x'; a_delay = d'; a_area = a'; a_dual = dual }
      else None
    end
  in
  let score0, x0, d0, a0, dual0 = eval path 0. in
  let base =
    {
      a_path = path;
      a_score = score0;
      a_sizing = x0;
      a_delay = d0;
      a_area = a0;
      a_extra = 0.;
      a_pairs = [];
      a_shields = [];
      a_dual = dual0;
    }
  in
  let ratios = overload_ratios ~lib path in
  let nodes =
    Array.to_list (Array.mapi (fun i r -> (i, r)) ratios)
    |> List.filter (fun (_, r) -> r > 1.)
    |> List.sort (fun (_, r1) (_, r2) -> compare r2 r1)
    |> List.map fst
  in
  (* Phase 1 - shields.  Dilutions at distinct stages barely interact, so
     apply them as one batch and evaluate once; fall back to per-node
     greedy acceptance only if the batch does not pay. *)
  let shielded acc at =
    match shield_stage ~lib acc.a_path ~at with
    | None -> None
    | Some (p', sh) ->
      Some { acc with a_path = p'; a_extra = acc.a_extra +. sh.shield_area;
                      a_shields = sh :: acc.a_shields }
  in
  let after_shields =
    let batch =
      List.fold_left (fun acc at -> Option.value (shielded acc at) ~default:acc) base nodes
    in
    if batch.a_shields = [] then base
    else
      match trial base ~x0:base.a_sizing batch with
      | Some acc -> acc
      | None ->
        (* per-node fallback *)
        List.fold_left
          (fun acc at ->
            match shielded acc at with
            | None -> acc
            | Some cand -> Option.value (trial acc ~x0:acc.a_sizing cand) ~default:acc)
          base nodes
  in
  (* Phase 2 - series pairs on the most overloaded remaining nodes, one
     greedy accept/reject each (descending stage order keeps indices
     valid: inserting after [at] only shifts indices > at). *)
  let pair_candidates =
    List.filteri (fun rank _ -> rank < max_insertion_trials) nodes
    |> List.sort (fun a b -> compare b a)
  in
  let step acc at =
    let cand = { acc with a_path = insert_pair ~lib acc.a_path ~at; a_pairs = at :: acc.a_pairs } in
    Option.value (trial acc ~x0:(through_pair acc.a_sizing ~at) cand) ~default:acc
  in
  let final = List.fold_left step after_shields pair_candidates in
  {
    path = final.a_path;
    sizing = final.a_sizing;
    delay = final.a_delay;
    area = final.a_area +. final.a_extra;
    inserted_after = List.rev final.a_pairs;
    shields = List.rev final.a_shields;
  }

let insert_local ~lib path sizing =
  (* Fig. 5's local method: "we conserve the size of gates (i-1) and (i)
     and just size the buffer".  Every critical node's branch is diluted
     by an off-path shield pair; no on-path stage is added or resized, so
     the path delay can only improve. *)
  let x = Path.clamp_sizing path sizing in
  let nodes = critical_nodes ~lib path x in
  let p, shields =
    List.fold_left
      (fun (p, shs) at ->
        match shield_stage ~lib p ~at with
        | Some (p', sh) -> (p', sh :: shs)
        | None -> (p, shs))
      (path, []) nodes
  in
  let shields = List.rev shields in
  let shield_area = List.fold_left (fun acc s -> acc +. s.shield_area) 0. shields in
  {
    path = p;
    sizing = x;
    delay = Path.delay_worst p x;
    area = Path.area p x +. shield_area;
    inserted_after = [];
    shields;
  }
