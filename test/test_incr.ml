(* Equivalence tests for the incremental timing engine: after any
   sequence of netlist edits, Timing.update must reproduce a from-scratch
   Timing.analyze bit for bit — arrivals, critical path, loads. *)

module Tech = Pops_process.Tech
module Gk = Pops_cell.Gate_kind
module Library = Pops_cell.Library
module Edge = Pops_delay.Edge
module Netlist = Pops_netlist.Netlist
module Transform = Pops_netlist.Transform
module Builder = Pops_netlist.Builder
module Generator = Pops_netlist.Generator
module Timing = Pops_sta.Timing
module Paths = Pops_sta.Paths
module Profiles = Pops_circuits.Profiles
module Rng = Pops_util.Rng

let qtest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xC0FFEE |]) t

let tech = Tech.cmos025
let lib = Library.make tech

(* reference load: the same pin-counting fold load_on performs, computed
   without the cache *)
let reference_load t id =
  let n = Netlist.node t id in
  let fanout_cap =
    List.fold_left
      (fun acc c ->
        let cn = Netlist.node t c in
        let pins =
          Array.fold_left (fun k f -> if f = id then k + 1 else k) 0 cn.Netlist.fanins
        in
        acc +. (float_of_int pins *. cn.Netlist.cin))
      0. n.Netlist.fanouts
  in
  let terminal =
    match List.assoc_opt id (Netlist.outputs t) with Some l -> l | None -> 0.
  in
  fanout_cap +. n.Netlist.wire +. terminal

let arrival_opt timing id edge =
  match Timing.arrival timing id edge with
  | a -> Some a
  | exception Not_found -> None

(* incremental [timing] vs a fresh analyze of the same netlist: arrivals
   (time, slope, provenance), critical delay/path, cached loads *)
let check_equiv ~what t timing =
  let fresh = Timing.analyze ~lib t in
  List.iter
    (fun id ->
      List.iter
        (fun edge ->
          match (arrival_opt timing id edge, arrival_opt fresh id edge) with
          | None, None -> ()
          | Some a, Some b ->
            if a.Timing.time <> b.Timing.time || a.Timing.slope <> b.Timing.slope
            then
              Alcotest.failf "%s: node %d arrival differs: %.17g/%.17g vs %.17g/%.17g"
                what id a.Timing.time a.Timing.slope b.Timing.time b.Timing.slope;
            if a.Timing.from_ <> b.Timing.from_ then
              Alcotest.failf "%s: node %d provenance differs" what id
          | Some _, None | None, Some _ ->
            Alcotest.failf "%s: node %d arrival presence differs" what id)
        [ Edge.Rising; Edge.Falling ])
    (Netlist.topological_order t);
  if Timing.critical_delay timing <> Timing.critical_delay fresh then
    Alcotest.failf "%s: critical delay differs" what;
  if Timing.critical_path timing <> Timing.critical_path fresh then
    Alcotest.failf "%s: critical path differs" what;
  List.iter
    (fun id ->
      let got = Netlist.load_on t id in
      let expected = reference_load t id in
      if Float.abs (got -. expected) > 1e-9 *. Float.max 1. (Float.abs expected)
      then Alcotest.failf "%s: node %d load %.17g <> reference %.17g" what id got expected)
    (Netlist.topological_order t)

(* one random mutator application; returns a label for failure messages *)
let random_edit rng t =
  let gates = Array.of_list (Netlist.gate_ids t) in
  let any_gate () = gates.(Rng.int rng (Array.length gates)) in
  let pis = Array.of_list (Netlist.inputs t) in
  match Rng.int rng 6 with
  | 0 ->
    let g = any_gate () in
    Netlist.set_cin t g (tech.Tech.cmin *. Rng.log_range rng 1. 40.);
    "set_cin"
  | 1 ->
    let g = any_gate () in
    Netlist.set_wire t g (tech.Tech.cmin *. Rng.float rng 5.);
    "set_wire"
  | 2 ->
    let g = any_gate () in
    ignore (Transform.insert_buffer t ~after:g);
    "insert_buffer"
  | 3 ->
    (* rewiring a pin to a primary input can never create a cycle *)
    let g = any_gate () in
    let n = Netlist.node t g in
    let pin = Rng.int rng (Array.length n.Netlist.fanins) in
    Netlist.set_fanin t g ~pin pis.(Rng.int rng (Array.length pis));
    "set_fanin"
  | 4 -> (
    let g = any_gate () in
    match Transform.de_morgan t g with
    | Ok _ -> "de_morgan"
    | Error _ -> "de_morgan(skipped)")
  | _ ->
    let g = any_gate () in
    Netlist.set_output t g ~load:(Rng.float rng 50.);
    "set_output"

let prop_incremental_matches_scratch =
  QCheck.Test.make ~name:"incremental == from-scratch on random edit sequences"
    ~count:100
    QCheck.(pair (int_range 4 16) (int_range 0 1_000_000))
    (fun (path_gates, salt) ->
      let p =
        Generator.make_profile
          ~name:(Printf.sprintf "incr%d_%d" path_gates salt)
          ~path_gates ()
      in
      let t, _ = Generator.generate tech p in
      let rng = Rng.create (Int64.of_int (salt + (path_gates * 7_919))) in
      let timing = Timing.analyze ~lib t in
      for step = 1 to 6 do
        let what = random_edit rng t in
        (match Netlist.validate t with
        | Ok () -> ()
        | Error m -> Alcotest.failf "edit %d (%s) broke invariants: %s" step what m);
        check_equiv ~what:(Printf.sprintf "step %d (%s)" step what) t timing
      done;
      true)

(* directed regressions: each mutator class on a fixed circuit *)

let gen40 () =
  Generator.generate tech (Generator.make_profile ~name:"incr-fixed" ~path_gates:40 ())

let test_set_cin_single () =
  let t, spine = gen40 () in
  let timing = Timing.analyze ~lib t in
  let g = List.nth spine 20 in
  Netlist.set_cin t g (9. *. tech.Tech.cmin);
  check_equiv ~what:"single set_cin" t timing

let test_buffer_chain () =
  let t, spine = gen40 () in
  let timing = Timing.analyze ~lib t in
  List.iteri
    (fun i g ->
      if i mod 7 = 0 then begin
        ignore (Transform.insert_buffer t ~after:g);
        check_equiv ~what:(Printf.sprintf "buffer after %d" g) t timing
      end)
    spine

let test_delete_gate_incremental () =
  let t = Netlist.create tech in
  let a = Netlist.add_input t in
  let g = Netlist.add_gate t Gk.Inv [| a |] in
  let h = Netlist.add_gate t Gk.Inv [| g |] in
  let dead = Netlist.add_gate t Gk.Inv [| g |] in
  Netlist.set_output t h ~load:10.;
  let timing = Timing.analyze ~lib t in
  Netlist.delete_gate t dead;
  check_equiv ~what:"delete_gate" t timing;
  (match Timing.arrival timing dead Edge.Rising with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "deleted node still has an arrival")

let test_cleanup_pairs_incremental () =
  let t, spine = gen40 () in
  let timing = Timing.analyze ~lib t in
  List.iteri (fun i g -> if i mod 9 = 0 then ignore (Transform.insert_buffer t ~after:g)) spine;
  check_equiv ~what:"after buffers" t timing;
  ignore (Pops_check.Circuit.cleanup_inverter_pairs t);
  check_equiv ~what:"after cleanup" t timing

let test_update_is_noop_when_clean () =
  let t, _ = gen40 () in
  let timing = Timing.analyze ~lib t in
  let d0 = Timing.critical_delay timing in
  Timing.update timing;
  Alcotest.(check bool) "no drift" true (Timing.critical_delay timing = d0)

(* the flow keeps one Timing.t alive through hundreds of edits; its final
   answer must equal a cold re-analysis of the final netlist *)
let test_flow_final_delay_matches_cold_sta () =
  List.iter
    (fun name ->
      let p = Option.get (Profiles.find name) in
      let nl, _ = Profiles.circuit tech p in
      let nl = Netlist.copy nl in
      let d0 = Timing.critical_delay (Timing.analyze ~lib nl) in
      let r =
        Pops_robust.Outcome.get (Pops_flow.Flow.optimize_o ~lib ~tc:(0.8 *. d0) nl)
      in
      let cold = Timing.critical_delay (Timing.analyze ~lib nl) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: persistent STA == cold STA (%.17g vs %.17g)" name
           r.Pops_flow.Flow.final_delay cold)
        true
        (r.Pops_flow.Flow.final_delay = cold);
      Alcotest.(check bool) (name ^ ": logic preserved") true
        (r.Pops_flow.Flow.equivalence = Ok ()))
    [ "fpd"; "c432"; "c880" ]

(* a stray POPS_FAULT must not perturb this deterministic suite;
   fault behaviour is covered by pops_prop and test_core's ladder *)
let () = Pops_check.Fault.clear ()

let () =
  Alcotest.run "pops_incr"
    [
      ( "equivalence",
        [
          qtest prop_incremental_matches_scratch;
          Alcotest.test_case "single set_cin" `Quick test_set_cin_single;
          Alcotest.test_case "buffer chain" `Quick test_buffer_chain;
          Alcotest.test_case "delete gate" `Quick test_delete_gate_incremental;
          Alcotest.test_case "cleanup pairs" `Quick test_cleanup_pairs_incremental;
          Alcotest.test_case "clean update is noop" `Quick test_update_is_noop_when_clean;
        ] );
      ( "flow",
        [
          Alcotest.test_case "flow == cold STA" `Slow test_flow_final_delay_matches_cold_sta;
        ] );
    ]
