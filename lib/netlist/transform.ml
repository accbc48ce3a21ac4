module Gk = Pops_cell.Gate_kind

let insert_buffer ?cin1 ?cin2 t ~after =
  let b1 = Netlist.add_gate ?cin:cin1 t Gk.Inv [| after |] in
  let b2 = Netlist.add_gate ?cin:cin2 t Gk.Inv [| b1 |] in
  (* move all original consumers (and any output designation) to b2; the
     first buffer inverter keeps reading the original node *)
  Netlist.rewire_fanouts t ~from_:after ~to_:b2 ~except:[ b1 ];
  (b1, b2)

let insert_buffer_for ?cin1 ?cin2 t ~after ~only =
  let b1 = Netlist.add_gate ?cin:cin1 t Gk.Inv [| after |] in
  let b2 = Netlist.add_gate ?cin:cin2 t Gk.Inv [| b1 |] in
  List.iter
    (fun c ->
      Array.iteri
        (fun pin f -> if f = after then Netlist.set_fanin t c ~pin b2)
        (Netlist.fanins t c))
    only;
  (b1, b2)

let de_morgan t id =
  match Netlist.kind t id with
  | Netlist.Primary_input -> Error "primary input"
  | Netlist.Cell kind -> (
    match Gk.de_morgan_dual kind with
    | None -> Error (Printf.sprintf "%s has no De Morgan dual" (Gk.name kind))
    | Some dual ->
      (* invert (or absorb) each fan-in; a pin counts the pins already
         rewired, so its fan-ins are read afresh *)
      for pin = 0 to Gk.arity kind - 1 do
        let fanins = Netlist.fanins t id in
        let src = fanins.(pin) in
        let feeds_one_pin =
          Array.fold_left (fun c f -> if f = src then c + 1 else c) 0 fanins = 1
        in
        let absorbable =
          match Netlist.kind t src with
          | Netlist.Cell Gk.Inv ->
            Netlist.fanouts t src = [ id ]
            (* an inverter wired to several pins of this gate must stay:
               absorbing it at one pin would delete it out from under
               the others *)
            && feeds_one_pin
            && not (Netlist.is_output t src)
          | Netlist.Cell
              ( Gk.Buf | Gk.Nand _ | Gk.Nor _ | Gk.Aoi21 | Gk.Oai21 | Gk.Aoi22
              | Gk.Oai22 | Gk.Xor2 | Gk.Xnor2 )
          | Netlist.Primary_input -> false
        in
        if absorbable then begin
          (* skip the inverter: read its own source directly *)
          let upstream = (Netlist.fanins t src).(0) in
          Netlist.set_fanin t id ~pin upstream;
          Netlist.delete_gate t src
        end
        else begin
          let inv = Netlist.add_gate t Gk.Inv [| src |] in
          Netlist.set_fanin t id ~pin inv
        end
      done;
      Netlist.replace_kind t id dual;
      (* output inverter restores the function; consumers move to it *)
      let out_inv = Netlist.add_gate t Gk.Inv [| id |] in
      Netlist.rewire_fanouts t ~from_:id ~to_:out_inv ~except:[ out_inv ];
      Ok out_inv)

let cleanup_inverter_pairs t =
  let removed = ref 0 in
  let is_inv id =
    match Netlist.kind t id with
    | Netlist.Cell Gk.Inv -> true
    | Netlist.Cell
        ( Gk.Buf | Gk.Nand _ | Gk.Nor _ | Gk.Aoi21 | Gk.Oai21 | Gk.Aoi22 | Gk.Oai22
        | Gk.Xor2 | Gk.Xnor2 )
    | Netlist.Primary_input -> false
  in
  let progress = ref true in
  while !progress do
    progress := false;
    let candidates =
      List.filter
        (fun id ->
          Netlist.node_exists t id && is_inv id
          && (not (Netlist.is_output t id))
          &&
          let src = (Netlist.fanins t id).(0) in
          is_inv src)
        (Netlist.gate_ids t)
    in
    List.iter
      (fun second ->
        if Netlist.node_exists t second then begin
          let first = (Netlist.fanins t second).(0) in
          if
            Netlist.node_exists t first && is_inv first
            && not (Netlist.is_output t second)
          then begin
            let origin = (Netlist.fanins t first).(0) in
            Netlist.rewire_fanouts t ~from_:second ~to_:origin ~except:[];
            if Netlist.fanouts t second = [] then begin
              Netlist.delete_gate t second;
              incr removed;
              if
                Netlist.fanouts t first = []
                && not (Netlist.is_output t first)
              then begin
                Netlist.delete_gate t first;
                incr removed
              end;
              progress := true
            end
          end
        end)
      candidates
  done;
  !removed
