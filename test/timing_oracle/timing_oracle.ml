(* The from-scratch STA that Pops_sta.Timing is checked against.

   Arrivals are propagated over the list topological order, one
   {!Pops_delay.Model.stage_delay} per fan-in edge, reading each node
   through the allocating {!Netlist.node} view; required times run the
   same recurrence backward over the reverse order.  Every answer comes
   from this module's own arrays and its own queries, so it shares no
   code with Timing's CSR sweep, its worklist update, its lazy backward
   sweep or its endpoint scan: a fault in any of them shows as a
   difference.  Results must match Timing bit for bit: the same float
   operations in the same order, and the same keep-first tie break. *)

module Netlist = Pops_netlist.Netlist
module Gk = Pops_cell.Gate_kind
module Edge = Pops_delay.Edge
module Model = Pops_delay.Model
module Timing = Pops_sta.Timing

type t = {
  nl : Netlist.t;
  lib : Pops_cell.Library.t;
  rise : Timing.arrival option array;  (* by node id *)
  fall : Timing.arrival option array;
}

let slots t = function Edge.Rising -> t.rise | Edge.Falling -> t.fall
let edges = [ Edge.Rising; Edge.Falling ]

(* input edges that can cause the given output edge *)
let causing kind edge_out =
  match kind with
  | Gk.Xnor2 | Gk.Xor2 -> edges
  | Gk.Inv | Gk.Nand _ | Gk.Nor _ | Gk.Aoi21 | Gk.Oai21 | Gk.Aoi22 | Gk.Oai22 ->
    [ Edge.flip edge_out ]
  | Gk.Buf -> [ edge_out ]

(* a gate's cell and the load its output drives, its own parasitic
   included *)
let stage t id (n : Netlist.node) kind =
  let cell = Pops_cell.Library.find_vt t.lib kind n.Netlist.vt in
  (cell, Netlist.load_on t.nl id +. Pops_cell.Cell.cpar cell ~cin:n.Netlist.cin)

let analyze ?input_slope ?(input_arrival = 0.) ~lib nl =
  let slope =
    match input_slope with
    | Some s -> s
    | None -> 2. *. (Netlist.tech nl).Pops_process.Tech.tau
  in
  let bound = Netlist.id_bound nl in
  let t = { nl; lib; rise = Array.make bound None; fall = Array.make bound None } in
  List.iter
    (fun id ->
      let n = Netlist.node nl id in
      match n.Netlist.kind with
      | Netlist.Primary_input ->
        let a = Some { Timing.time = input_arrival; slope; from_ = None } in
        t.rise.(id) <- a;
        t.fall.(id) <- a
      | Netlist.Cell kind ->
        let cell, cload = stage t id n kind in
        let eval edge_out =
          List.fold_left
            (fun best edge_in ->
              Array.fold_left
                (fun best f ->
                  match (slots t edge_in).(f) with
                  | None -> best
                  | Some (a : Timing.arrival) -> (
                    let d, slope =
                      Model.stage_delay cell ~edge_out ~tau_in:a.Timing.slope
                        ~cin:n.Netlist.cin ~cload
                    in
                    let time = a.Timing.time +. d in
                    match best with
                    | Some (b : Timing.arrival) when b.Timing.time >= time -> best
                    | Some _ | None ->
                      Some { Timing.time; slope; from_ = Some (f, edge_in) }))
                best n.Netlist.fanins)
            None (causing kind edge_out)
        in
        t.rise.(id) <- eval Edge.Rising;
        t.fall.(id) <- eval Edge.Falling)
    (Netlist.topological_order nl);
  t

let arrival t id edge =
  if id < 0 || id >= Array.length t.rise then raise Not_found;
  match (slots t edge).(id) with Some a -> a | None -> raise Not_found

(* the worst edge at a node: rising on ties and when falling is
   undefined *)
let node_worst t id =
  let get e = match arrival t id e with a -> Some a | exception Not_found -> None in
  match (get Edge.Rising, get Edge.Falling) with
  | Some r, Some f ->
    if r.Timing.time >= f.Timing.time then (Edge.Rising, r) else (Edge.Falling, f)
  | Some r, None -> (Edge.Rising, r)
  | None, Some f -> (Edge.Falling, f)
  | None, None -> raise Not_found

(* the first output, in designation order, whose worst arrival is the
   latest *)
let critical_endpoint t =
  List.fold_left
    (fun best (id, _) ->
      match node_worst t id with
      | exception Not_found -> best
      | e, a -> (
        match best with
        | Some (_, _, (b : Timing.arrival)) when b.Timing.time >= a.Timing.time -> best
        | Some _ | None -> Some (id, e, a)))
    None (Netlist.outputs t.nl)

let critical_delay t =
  match critical_endpoint t with Some (_, _, a) -> a.Timing.time | None -> 0.

(* source first, following the stored provenance *)
let backtrack t id edge =
  let rec go id edge acc =
    match (arrival t id edge).Timing.from_ with
    | None -> id :: acc
    | Some (src, e) -> go src e (id :: acc)
  in
  go id edge []

let critical_path t =
  match critical_endpoint t with Some (id, e, _) -> backtrack t id e | None -> []

let path_through t id = backtrack t id (fst (node_worst t id))
let slack t ~tc id = tc -. (snd (node_worst t id)).Timing.time

(* --- required times and slacks ---------------------------------------- *)

(* nan: undefined (no arrival through that edge, or no constrained path
   downstream) *)
type slacks = { req_rise : float array; req_fall : float array; worst : float array }

let req s = function Edge.Rising -> s.req_rise | Edge.Falling -> s.req_fall

(* the smaller of two values, nan where undefined *)
let min_defined acc x =
  if Float.is_nan x || ((not (Float.is_nan acc)) && acc <= x) then acc else x

(* A node's required time per edge is [tc] if it is an output, minimised
   with, for every consumer and every consumer output edge this edge can
   cause, the consumer's required time minus the stage delay through it
   at this node's slope. *)
let slacks t ~tc =
  let nl = t.nl in
  let bound = Array.length t.rise in
  let s =
    { req_rise = Array.make bound Float.nan; req_fall = Array.make bound Float.nan;
      worst = Array.make bound Float.nan }
  in
  List.iter
    (fun id ->
      let consumers = (Netlist.node nl id).Netlist.fanouts in
      List.iter
        (fun edge ->
          match (slots t edge).(id) with
          | None -> ()
          | Some a ->
            let through acc c =
              let cn = Netlist.node nl c in
              match cn.Netlist.kind with
              | Netlist.Primary_input -> acc
              | Netlist.Cell kind ->
                let cell, cload = stage t c cn kind in
                List.fold_left
                  (fun acc edge_out ->
                    let rc = (req s edge_out).(c) in
                    if Float.is_nan rc || not (List.mem edge (causing kind edge_out))
                    then acc
                    else
                      let d, _ =
                        Model.stage_delay cell ~edge_out ~tau_in:a.Timing.slope
                          ~cin:cn.Netlist.cin ~cload
                      in
                      min_defined acc (rc -. d))
                  acc edges
            in
            let at_output = if Netlist.is_output nl id then tc else Float.nan in
            let r = List.fold_left through at_output consumers in
            (req s edge).(id) <- r;
            if not (Float.is_nan r) then
              s.worst.(id) <- min_defined s.worst.(id) (r -. a.Timing.time))
        edges)
    (List.rev (Netlist.topological_order nl));
  s

let required s id edge =
  if id < 0 || id >= Array.length s.worst then raise Not_found;
  let r = (req s edge).(id) in
  if Float.is_nan r then raise Not_found;
  r

let node_slack s id =
  if id < 0 || id >= Array.length s.worst then Float.nan else s.worst.(id)
