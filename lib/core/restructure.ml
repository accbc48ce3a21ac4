module Path = Pops_delay.Path
module Gk = Pops_cell.Gate_kind
module Library = Pops_cell.Library

type rewrite = {
  stage : int;
  from_kind : Gk.t;
  to_kind : Gk.t;
  side_inverters : int;
}

type result = {
  path : Path.t;
  rewrites : rewrite list;
  side_area : float;
}

let candidates ~lib path =
  (* restructuring targets the gates buffer insertion would otherwise
     relieve: inefficient kinds (dual has a higher Flimit) that sit on an
     overloaded node.  Rewriting an unloaded NOR only adds stages. *)
  let critical = Buffers.critical_nodes ~lib path in
  let consider i (st : Path.stage) =
    let kind = st.Path.cell.Pops_cell.Cell.kind in
    match Gk.de_morgan_dual kind with
    | None -> None
    | Some dual ->
      let f_kind = Buffers.flimit ~lib ~driver:Gk.Inv ~gate:kind () in
      let f_dual = Buffers.flimit ~lib ~driver:Gk.Inv ~gate:dual () in
      if f_kind < f_dual && List.mem i critical then Some i else None
  in
  Array.to_list (Array.mapi consider path.Path.stages) |> List.filter_map Fun.id

(* Three forms of the rewrite, picked per site (NOR shown; NAND dual):

   - pred-absorbed: a dedicated feeding inverter cancels against the
     input inversion:      [... INV NOR ...] -> [... NAND INV ...]
   - succ-absorbed: a following inverter cancels against the output
     inversion:            [... NOR INV ...] -> [... INV NAND ...]
     (the NOR's own branch consumers move behind an off-path polarity
     inverter, charged to the side area)
   - expanded: neither neighbour absorbs, so both inverters are added:
     [... g NOR ...] -> [... g INV NAND INV ...] (+2 stages).

   The absorbed forms keep the stage count - this is why the paper can
   say "the number of inserted inverters is the same" as for buffer
   insertion while the implementation is cheaper (Section 4.2).  Side
   inputs always get [arity - 1] off-path minimum inverters. *)

let is_inv (st : Path.stage) =
  Gk.equal st.Path.cell.Pops_cell.Cell.kind Gk.Inv

let dual_of path i =
  Gk.de_morgan_dual path.Path.stages.(i).Path.cell.Pops_cell.Cell.kind

(* the inverter at [i] feeds a rewritten stage [i+1] and can cancel *)
let pred_absorbable path ~rewrite_at i =
  let n = Array.length path.Path.stages in
  i > 0
  && (not (rewrite_at i))
  && is_inv path.Path.stages.(i)
  && path.Path.stages.(i).Path.branch = 0.
  && i + 1 < n
  && rewrite_at (i + 1)
  && dual_of path (i + 1) <> None

(* the inverter at [i+1] follows a rewritten stage [i] and can cancel *)
let succ_absorbable path ~rewrite_at i =
  let n = Array.length path.Path.stages in
  rewrite_at i
  && dual_of path i <> None
  && i + 1 < n
  && is_inv path.Path.stages.(i + 1)
  && (not (rewrite_at (i + 1)))
  (* and that inverter is not already claimed as the pred of i+2 *)
  && not (pred_absorbable path ~rewrite_at (i + 1))

let apply ~lib ?stages path =
  let stages_to_rewrite =
    match stages with Some s -> s | None -> candidates ~lib path
  in
  if stages_to_rewrite = [] then None
  else begin
    let inv = Library.inverter lib in
    let cmin = (Library.tech lib).Pops_process.Tech.cmin in
    let n = Array.length path.Path.stages in
    let rewrite_at i = List.mem i stages_to_rewrite in
    let new_stages = ref [] and rewrites = ref [] and side_area = ref 0. in
    let record ?(extra_side_area = 0.) i kind dual =
      let side = Gk.arity kind - 1 in
      side_area :=
        !side_area
        +. (float_of_int side *. Pops_cell.Cell.area inv ~cin:cmin)
        +. extra_side_area;
      rewrites :=
        { stage = i; from_kind = kind; to_kind = dual; side_inverters = side }
        :: !rewrites
    in
    let emit st = new_stages := st :: !new_stages in
    let rec go i =
      if i < n then
        let st = path.Path.stages.(i) in
        let kind = st.Path.cell.Pops_cell.Cell.kind in
        if pred_absorbable path ~rewrite_at i then begin
          let st' = path.Path.stages.(i + 1) in
          let kind' = st'.Path.cell.Pops_cell.Cell.kind in
          match Gk.de_morgan_dual kind' with
          | Some dual ->
            emit { Path.cell = Library.find lib dual; branch = 0. };
            emit { Path.cell = inv; branch = st'.Path.branch };
            record (i + 1) kind' dual;
            go (i + 2)
          | None -> assert false
        end
        else if succ_absorbable path ~rewrite_at i then begin
          match Gk.de_morgan_dual kind with
          | Some dual ->
            let st_inv = path.Path.stages.(i + 1) in
            (* the gate's old branch consumers need the old polarity: an
               off-path inverter (fanout-4 sized) takes them over and its
               input capacitance loads the dual gate *)
            let polarity_cin, polarity_area =
              if st.Path.branch > 0. then begin
                let c = Float.max cmin (st.Path.branch /. 4.) in
                (c, Pops_cell.Cell.area inv ~cin:c)
              end
              else (0., 0.)
            in
            emit { Path.cell = inv; branch = 0. };
            emit
              {
                Path.cell = Library.find lib dual;
                branch = st_inv.Path.branch +. polarity_cin;
              };
            record ~extra_side_area:polarity_area i kind dual;
            go (i + 2)
          | None ->
            emit st;
            go (i + 1)
        end
        else if rewrite_at i then begin
          match Gk.de_morgan_dual kind with
          | Some dual ->
            emit { Path.cell = inv; branch = 0. };
            emit { Path.cell = Library.find lib dual; branch = 0. };
            emit { Path.cell = inv; branch = st.Path.branch };
            record i kind dual;
            go (i + 1)
          | None ->
            emit st;
            go (i + 1)
        end
        else begin
          emit st;
          go (i + 1)
        end
    in
    go 0;
    let p =
      Path.make ~opts:path.Path.opts ~input_slope:path.Path.input_slope
        ~input_edge:path.Path.input_edge ~drive_cin:path.Path.drive_cin
        ~tech:path.Path.tech ~c_out:path.Path.c_out
        (List.rev !new_stages)
    in
    Some { path = p; rewrites = List.rev !rewrites; side_area = !side_area }
  end

type optimized = {
  o_path : Path.t;
  o_sizing : float array;
  o_delay : float;
  o_area : float;
  o_rewrites : rewrite list;
}

let optimize ~lib path ~tc =
  (* only the stage-count-preserving (absorbed) rewrites are worth it in
     an optimization flow; expanded sites are left to buffer insertion *)
  let cands = candidates ~lib path in
  let rewrite_at i = List.mem i cands in
  let absorbed =
    List.filter
      (fun i ->
        (i > 0 && pred_absorbable path ~rewrite_at (i - 1))
        || succ_absorbable path ~rewrite_at i)
      cands
  in
  match (if absorbed = [] then None else apply ~lib ~stages:absorbed path) with
  | None -> None
  | Some r ->
    (* the rewritten path still carries its other overloaded nodes: give
       it the same buffer-insertion pass its competitor gets, so Table 4
       compares "restructure the NORs" vs "buffer the NORs" fairly *)
    let ins = Buffers.insert_global ~objective:(`Area_at tc) ~lib r.path in
    if Path.delay_worst ins.Buffers.path ins.Buffers.sizing <= tc *. (1. +. 1e-6) +. 0.02
    then
      Some
        {
          o_path = ins.Buffers.path;
          o_sizing = ins.Buffers.sizing;
          o_delay = ins.Buffers.delay;
          o_area = ins.Buffers.area +. r.side_area;
          o_rewrites = r.rewrites;
        }
    else None
