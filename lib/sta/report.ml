module Netlist = Pops_netlist.Netlist
module Edge = Pops_delay.Edge
module Table = Pops_util.Table

type stage_line = {
  node : int;
  gate : string;
  fanout : int;
  cap : float;
  incr : float;
  arrival : float;
  edge : Edge.t;
}

(* walk the path source-first, reading each node's annotated worst
   arrival; the edge at each node is recovered from the provenance chain
   of the endpoint *)
let path_breakdown ~lib t timing nodes =
  ignore lib;
  match List.rev nodes with
  | [] -> []
  | endpoint :: _ ->
    (* recover the edge at every node by walking provenance back *)
    let edges = Hashtbl.create 16 in
    let end_edge, _ = Timing.node_worst timing endpoint in
    let rec back id edge =
      Hashtbl.replace edges id edge;
      match (Timing.arrival timing id edge).Timing.from_ with
      | Some (src, src_edge) -> back src src_edge
      | None -> ()
    in
    back endpoint end_edge;
    let prev_arrival = ref 0. in
    List.map
      (fun id ->
        let gate =
          match Netlist.kind t id with
          | Netlist.Primary_input -> "input"
          | Netlist.Cell kind -> Pops_cell.Gate_kind.name kind
        in
        let edge =
          match Hashtbl.find_opt edges id with
          | Some e -> e
          | None -> fst (Timing.node_worst timing id)
        in
        let arrival =
          match Timing.arrival timing id edge with
          | a -> a.Timing.time
          | exception Not_found -> 0.
        in
        let line =
          {
            node = id;
            gate;
            fanout = List.length (Netlist.fanouts t id);
            cap = Netlist.load_on t id;
            incr = arrival -. !prev_arrival;
            arrival;
            edge;
          }
        in
        prev_arrival := arrival;
        line)
      nodes

let render_path ~lib t timing nodes =
  let lines = path_breakdown ~lib t timing nodes in
  let tbl =
    Table.create ~title:"critical path"
      [ ("node", Table.Right); ("gate", Table.Left); ("edge", Table.Left);
        ("fanout", Table.Right); ("load (fF)", Table.Right);
        ("incr (ps)", Table.Right); ("arrival (ps)", Table.Right) ]
  in
  List.iter
    (fun l ->
      Table.add_row tbl
        [ string_of_int l.node; l.gate; Format.asprintf "%a" Edge.pp l.edge;
          string_of_int l.fanout; Table.cell_f l.cap;
          Table.cell_f ~decimals:1 l.incr; Table.cell_f ~decimals:1 l.arrival ])
    lines;
  Table.render tbl

let endpoint_summary ~lib ?tc t timing =
  ignore lib;
  let rows =
    List.filter_map
      (fun (id, _) ->
        match Timing.node_worst timing id with
        | edge, a -> Some (id, edge, a.Timing.time)
        | exception Not_found -> None)
      (Netlist.outputs t)
    |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
  in
  let tbl =
    Table.create ~title:"endpoints (worst first)"
      (( [ ("node", Table.Right); ("edge", Table.Left); ("arrival (ps)", Table.Right) ]
       @ match tc with Some _ -> [ ("slack (ps)", Table.Right) ] | None -> [] ))
  in
  List.iter
    (fun (id, edge, time) ->
      let base =
        [ string_of_int id; Format.asprintf "%a" Edge.pp edge;
          Table.cell_f ~decimals:1 time ]
      in
      let row =
        match tc with
        | Some tc -> base @ [ Table.cell_f ~decimals:1 (tc -. time) ]
        | None -> base
      in
      Table.add_row tbl row)
    rows;
  Table.render tbl
