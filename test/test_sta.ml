(* Tests for Pops_sta: arrival propagation, path extraction/selection,
   netlist power — plus the circuits and AMPS-baseline layers. *)

module Tech = Pops_process.Tech
module Gk = Pops_cell.Gate_kind
module Library = Pops_cell.Library
module Edge = Pops_delay.Edge
module Path = Pops_delay.Path
module Netlist = Pops_netlist.Netlist
module Builder = Pops_netlist.Builder
module Generator = Pops_netlist.Generator
module Timing = Pops_sta.Timing
module Paths = Pops_sta.Paths
module Power = Pops_sta.Power
module Profiles = Pops_circuits.Profiles
module Bounds = Pops_core.Bounds
module Sens = Pops_core.Sensitivity

let qtest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xC0FFEE |]) t

let tech = Tech.cmos025
let lib = Library.make tech

(* --- timing --- *)

let chain4 =
  let t = Builder.inverter_chain tech ~n:4 ~out_load:30. in
  t

let test_arrival_monotone_along_chain () =
  let timing = Timing.analyze ~lib chain4 in
  let gates = Netlist.gate_ids chain4 in
  let arrivals = List.map (fun id -> snd (Timing.node_worst timing id)) gates in
  let rec check = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "monotone" true (b.Timing.time > a.Timing.time);
      check rest
    | [ _ ] | [] -> ()
  in
  check arrivals

let test_critical_delay_positive () =
  let timing = Timing.analyze ~lib chain4 in
  Alcotest.(check bool) "positive" true (Timing.critical_delay timing > 0.)

let test_critical_path_structure () =
  let timing = Timing.analyze ~lib chain4 in
  let path = Timing.critical_path timing in
  (* PI + 4 inverters *)
  Alcotest.(check int) "full chain" 5 (List.length path);
  let rec connected = function
    | a :: (b :: _ as rest) ->
      Array.exists (fun f -> f = a) (Netlist.node chain4 b).Netlist.fanins
      && connected rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "connected" true (connected path)

let test_arrival_edges_alternate () =
  let timing = Timing.analyze ~lib chain4 in
  let gates = Array.of_list (Netlist.gate_ids chain4) in
  (* an inverter's rising arrival comes from its fanin's falling edge *)
  let a = Timing.arrival timing gates.(1) Edge.Rising in
  match a.Timing.from_ with
  | Some (src, e) ->
    Alcotest.(check bool) "from previous gate" true (src = gates.(0));
    Alcotest.(check bool) "from falling" true (Edge.equal e Edge.Falling)
  | None -> Alcotest.fail "no provenance"

let test_upsizing_driver_reduces_delay () =
  let t = Builder.inverter_chain tech ~n:3 ~out_load:100. in
  let d0 = Timing.critical_delay (Timing.analyze ~lib t) in
  let last = List.nth (Netlist.gate_ids t) 2 in
  Netlist.set_cin t last (8. *. tech.Tech.cmin);
  let d1 = Timing.critical_delay (Timing.analyze ~lib t) in
  Alcotest.(check bool) "upsizing output driver helps" true (d1 < d0)

let test_slack () =
  let timing = Timing.analyze ~lib chain4 in
  let d = Timing.critical_delay timing in
  let last = List.nth (Netlist.gate_ids chain4) 3 in
  let s = Timing.slack timing ~tc:(d +. 100.) last in
  Alcotest.(check bool) "slack = margin" true (Float.abs (s -. 100.) < 1e-6)

(* --- path extraction --- *)

(* fresh instance per test: several tests mutate the netlist *)
let gen20 () =
  Generator.generate tech (Generator.make_profile ~name:"sta20" ~path_gates:20 ())

let test_extract_critical () =
  let t, spine = gen20 () in
  let ex = Paths.extract ~lib t spine in
  Alcotest.(check int) "stage per spine gate" (List.length spine) (Path.length ex.Paths.path);
  (* terminal load positive, branches non-negative *)
  Alcotest.(check bool) "c_out positive" true (ex.Paths.path.Path.c_out > 0.);
  Array.iter
    (fun (st : Path.stage) ->
      Alcotest.(check bool) "branch >= 0" true (st.Path.branch >= 0.))
    ex.Paths.path.Path.stages

let test_extract_branches_match_netlist () =
  let t, spine = gen20 () in
  let ex = Paths.extract ~lib t spine in
  (* for each interior spine node: branch + next cin = total load *)
  let arr = Array.of_list spine in
  Array.iteri
    (fun i (st : Path.stage) ->
      if i < Array.length arr - 1 then begin
        let total = Netlist.load_on t arr.(i) in
        let next_cin = (Netlist.node t arr.(i + 1)).Netlist.cin in
        Alcotest.(check bool)
          (Printf.sprintf "stage %d load decomposition" i)
          true
          (Float.abs (st.Path.branch +. next_cin -. total) < 1e-9)
      end)
    ex.Paths.path.Path.stages

let test_extract_rejects_disconnected () =
  let t, spine = gen20 () in
  match spine with
  | a :: _ :: c :: _ -> (
    match Paths.extract ~lib t [ a; c ] with
    | exception Invalid_argument _ -> ()
    | _ ->
      (* a might legitimately drive c through a side pin; only fail when
         extraction succeeded AND they are not connected *)
      let nc = Netlist.node t c in
      Alcotest.(check bool) "connected after all" true
        (Array.exists (fun f -> f = a) nc.Netlist.fanins))
  | _ -> Alcotest.fail "spine too short"

let test_critical_equals_spine () =
  (* the generator guarantees the spine is the deepest chain; STA's
     critical path must be at least as slow as the extracted spine *)
  let t, spine = gen20 () in
  let crit = Paths.critical ~lib t in
  let spine_ex = Paths.extract ~lib t spine in
  let delay_of ex =
    let x = Array.of_list (List.map (fun id -> (Netlist.node t id).Netlist.cin) ex.Paths.nodes) in
    Path.delay_worst ex.Paths.path x
  in
  Alcotest.(check bool) "critical >= spine delay" true
    (delay_of crit >= delay_of spine_ex -. 1.)

let test_k_worst_sorted_distinct () =
  let t, _ = gen20 () in
  let paths = Paths.k_worst ~k:4 ~lib t in
  Alcotest.(check bool) "got some paths" true (List.length paths >= 2);
  let delays =
    List.map
      (fun ex ->
        let x =
          Array.of_list (List.map (fun id -> (Netlist.node t id).Netlist.cin) ex.Paths.nodes)
        in
        Path.delay_worst ex.Paths.path x)
      paths
  in
  let rec sorted = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-9 && sorted rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "descending" true (sorted delays);
  let keys = List.map (fun ex -> ex.Paths.nodes) paths in
  Alcotest.(check int) "distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_apply_sizing_roundtrip () =
  let t, spine = gen20 () in
  let ex = Paths.extract ~lib t spine in
  let n = List.length ex.Paths.nodes in
  let sizing = Array.init n (fun i -> 5. +. float_of_int i) in
  Paths.apply_sizing t ex.Paths.nodes sizing;
  List.iteri
    (fun i id ->
      Alcotest.(check bool) "written" true
        (Float.abs ((Netlist.node t id).Netlist.cin -. sizing.(i)) < 1e-12))
    ex.Paths.nodes

(* --- sizing a real extracted path end to end --- *)

let test_optimize_extracted_path_improves_sta () =
  let t, spine = gen20 () in
  let d_before = Timing.critical_delay (Timing.analyze ~lib t) in
  let ex = Paths.extract ~lib t spine in
  let b = Bounds.compute ex.Paths.path in
  Paths.apply_sizing t ex.Paths.nodes b.Bounds.sizing_tmin;
  let d_after = Timing.critical_delay (Timing.analyze ~lib t) in
  Alcotest.(check bool)
    (Printf.sprintf "STA sees the improvement: %.1f -> %.1f" d_before d_after)
    true (d_after < d_before)

let test_c17_reconvergence () =
  (* c17 has reconvergent fan-out through n11/n16: STA must still order
     arrivals and find a 3-gate-deep critical path *)
  let t = Builder.c17 tech in
  let timing = Timing.analyze ~lib t in
  Alcotest.(check bool) "positive" true (Timing.critical_delay timing > 0.);
  let path = Timing.critical_path timing in
  (* PI + 3 gate levels *)
  Alcotest.(check int) "depth 3 critical path" 4 (List.length path)

let test_k_worst_on_c17 () =
  let t = Builder.c17 tech in
  let paths = Paths.k_worst ~k:6 ~lib t in
  Alcotest.(check bool) "several distinct paths" true (List.length paths >= 3);
  List.iter
    (fun ex ->
      Alcotest.(check bool) "each path nonempty" true (ex.Paths.nodes <> []))
    paths

let test_input_slope_propagates () =
  (* a slower primary-input edge slows the whole chain *)
  let t = Builder.inverter_chain tech ~n:3 ~out_load:40. in
  let d_fast = Timing.critical_delay (Timing.analyze ~input_slope:20. ~lib t) in
  let d_slow = Timing.critical_delay (Timing.analyze ~input_slope:400. ~lib t) in
  Alcotest.(check bool) "slope slows" true (d_slow > d_fast)

(* --- report --- *)

module Report = Pops_sta.Report

(* the rendered breakdown: a header and one row per path node, whose
   "incr (ps)" column sums (to the printed rounding) to the "arrival
   (ps)" column, which ends at the critical delay *)
let test_report_breakdown_consistent () =
  let t = Builder.inverter_chain tech ~n:4 ~out_load:30. in
  let timing = Timing.analyze ~lib t in
  let crit = Timing.critical_path timing in
  let rows =
    List.filter_map
      (fun l ->
        if String.length l > 0 && l.[0] = '|' then
          Some (Array.of_list (List.map String.trim (String.split_on_char '|' l)))
        else None)
      (String.split_on_char '\n' (Report.render_path ~lib t timing crit))
  in
  Alcotest.(check int) "line per node" (List.length crit) (List.length rows - 1);
  let nodes = List.tl rows in
  let total = List.fold_left (fun acc r -> acc +. float_of_string r.(6)) 0. nodes in
  let last = float_of_string (List.nth nodes (List.length nodes - 1)).(7) in
  Alcotest.(check bool) "increments sum to arrival" true
    (Float.abs (total -. last) <= 0.05 *. float_of_int (List.length nodes + 1));
  Alcotest.(check string) "matches critical delay"
    (Printf.sprintf "%.1f" (Timing.critical_delay timing))
    (Printf.sprintf "%.1f" last)

let test_report_renders () =
  let t = Builder.c17 tech in
  let timing = Timing.analyze ~lib t in
  let s =
    Report.endpoint_summary ~lib ~tc:500. t timing
    ^ Report.render_path ~lib t timing (Timing.critical_path timing)
  in
  Alcotest.(check bool) "has endpoint table" true
    (String.length s > 100);
  (* the slack column appears when tc is given *)
  let has_slack =
    let needle = "slack" in
    let nh = String.length s and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub s i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "slack column" true has_slack

let test_k1_matches_critical () =
  let t, _ = gen20 () in
  let k1 = Paths.k_worst ~k:1 ~lib t in
  let crit = Paths.critical ~lib t in
  (match k1 with
  | [ ex ] ->
    Alcotest.(check (list int)) "k=1 equals the critical path" crit.Paths.nodes ex.Paths.nodes
  | other -> Alcotest.failf "expected exactly one path, got %d" (List.length other))

(* a 48-inverter chain's critical path is 49 nodes, so the upstream
   window of 48 holds only the primary input: it wraps to the
   endpoint-side window instead of raising *)
let test_critical_window_wraps_input_only () =
  let t = Builder.inverter_chain tech ~n:48 ~out_load:30. in
  let w0 = Paths.critical ~max_cone:48 ~phase:0 ~lib t in
  let w1 = Paths.critical ~max_cone:48 ~phase:1 ~lib t in
  Alcotest.(check int) "full window" 48 (List.length w0.Paths.nodes);
  Alcotest.(check (list int)) "phase 1 wraps to phase 0" w0.Paths.nodes
    w1.Paths.nodes;
  Alcotest.(check int) "total counts the input" 49 w1.Paths.total_gates

(* --- power --- *)

let test_power_report () =
  let t, _ = gen20 () in
  let r = Power.analyze ~lib t in
  Alcotest.(check bool) "positive power" true (r.Power.dynamic_uw > 0.);
  Alcotest.(check bool) "area matches netlist" true
    (Float.abs (r.Power.area -. Netlist.total_area t lib) < 1e-9)

let test_power_grows_with_sizing () =
  let t, spine = gen20 () in
  let p0 = (Power.analyze ~lib t).Power.dynamic_uw in
  List.iter (fun id -> Netlist.set_cin t id (10. *. tech.Tech.cmin)) spine;
  let p1 = (Power.analyze ~lib t).Power.dynamic_uw in
  Alcotest.(check bool) "more width, more power" true (p1 > p0)

(* --- circuits --- *)

let test_profiles_complete () =
  Alcotest.(check int) "11 benchmarks" 11 (List.length Profiles.all);
  List.iter
    (fun (p : Profiles.t) ->
      Alcotest.(check bool) (p.Profiles.name ^ " cpu ratio") true
        (p.Profiles.paper_cpu_amps_ms > 10. *. p.Profiles.paper_cpu_pops_ms))
    Profiles.all

let test_profiles_materialize () =
  let p = Option.get (Profiles.find "c880") in
  let t, spine = Profiles.circuit tech p in
  Alcotest.(check int) "spine = paper gate count" p.Profiles.path_gates
    (List.length spine);
  Alcotest.(check bool) "valid" true (Netlist.validate t = Ok ())

let test_table4_subset () =
  List.iter
    (fun (p : Profiles.t) ->
      Alcotest.(check bool) "in all" true (Profiles.find p.Profiles.name <> None))
    Profiles.table4_suite;
  Alcotest.(check int) "4 circuits" 4 (List.length Profiles.table4_suite)

(* --- integration: the protocol on a real extracted benchmark path --- *)

let test_protocol_on_extracted_circuit_all_domains () =
  let p = Option.get (Profiles.find "c432") in
  let nl, spine = Profiles.circuit tech p in
  let path = (Paths.extract ~lib nl spine).Paths.path in
  let b = Bounds.compute path in
  List.iter
    (fun domain ->
      let tc = Pops_core.Domains.representative_tc ~tmin:b.Bounds.tmin domain in
      let r = Pops_core.Protocol.run ~lib ~tc path in
      Alcotest.(check bool)
        (Printf.sprintf "domain %s met (tc=%.0f, got %.0f)"
           (Pops_core.Domains.to_string domain) tc r.Pops_core.Protocol.delay)
        true r.Pops_core.Protocol.met)
    [ Pops_core.Domains.Weak; Pops_core.Domains.Medium; Pops_core.Domains.Hard ]

(* --- amps baseline --- *)

let small_path =
  let t, spine = Generator.generate tech (Generator.make_profile ~name:"amps12" ~path_gates:12 ()) in
  (Paths.extract ~lib t spine).Paths.path

let test_tilos_meets_constraint () =
  let b = Bounds.compute small_path in
  let tc = 1.5 *. b.Bounds.tmin in
  let r = Pops_baselines.Tilos.size_for_constraint small_path ~tc in
  Alcotest.(check bool) "met" true r.Pops_baselines.Tilos.met;
  Alcotest.(check bool) "delay <= tc" true (r.Pops_baselines.Tilos.delay <= tc +. 0.1)

let test_tilos_never_beats_tmin () =
  let b = Bounds.compute small_path in
  let r = Pops_baselines.Tilos.size_for_constraint small_path ~tc:(0.5 *. b.Bounds.tmin) in
  Alcotest.(check bool) "cannot meet sub-Tmin" false r.Pops_baselines.Tilos.met;
  (* Bounds.tmin is evaluated on a small polarity-weight grid, so a
     direct worst-delay greedy may undercut it by a sliver — never by
     more than ~1% *)
  Alcotest.(check bool) "delay >= 0.99 tmin" true
    (r.Pops_baselines.Tilos.delay >= 0.99 *. b.Bounds.tmin)

let test_random_search_near_tmin () =
  let b = Bounds.compute small_path in
  let r = Pops_baselines.Random_search.minimum_delay small_path in
  Alcotest.(check bool)
    (Printf.sprintf "pseudo-random Tmin %.1f >= deterministic %.1f" r.Pops_baselines.Random_search.delay
       b.Bounds.tmin)
    true
    (r.Pops_baselines.Random_search.delay >= b.Bounds.tmin -. 0.5);
  Alcotest.(check bool) "within 30% of optimum" true
    (r.Pops_baselines.Random_search.delay <= 1.3 *. b.Bounds.tmin)

let test_random_search_deterministic () =
  let r1 = Pops_baselines.Random_search.minimum_delay ~restarts:2 ~steps:50 small_path in
  let r2 = Pops_baselines.Random_search.minimum_delay ~restarts:2 ~steps:50 small_path in
  Alcotest.(check bool) "same result same seed" true
    (r1.Pops_baselines.Random_search.delay = r2.Pops_baselines.Random_search.delay)

let test_amps_facade () =
  let b = Bounds.compute small_path in
  let r = Pops_baselines.Amps.size_for_constraint small_path ~tc:(1.3 *. b.Bounds.tmin) in
  Alcotest.(check bool) "facade met" true r.Pops_baselines.Amps.met;
  Alcotest.(check bool) "evaluations counted" true (r.Pops_baselines.Amps.evaluations > 0)

let prop_pops_beats_or_ties_amps_area =
  (* Fig. 4's claim on random circuits: at 1.2 Tmin the deterministic
     distribution never needs more area than the iterative baseline
     (beyond numerical noise). *)
  QCheck.Test.make ~name:"POPS area <= AMPS area at 1.2 Tmin" ~count:8
    QCheck.(int_range 8 20)
    (fun path_gates ->
      let t, spine =
        Generator.generate tech
          (Generator.make_profile ~name:(Printf.sprintf "cmp%d" path_gates) ~path_gates ())
      in
      let path = (Paths.extract ~lib t spine).Paths.path in
      let b = Bounds.compute path in
      let tc = 1.2 *. b.Bounds.tmin in
      match Sens.size_for_constraint path ~tc with
      | Ok r ->
        let amps = Pops_baselines.Amps.size_for_constraint path ~tc in
        (not amps.Pops_baselines.Amps.met)
        || r.Sens.area <= amps.Pops_baselines.Amps.area *. 1.02
      | Error _ -> false)

(* a stray POPS_FAULT must not perturb this deterministic suite;
   fault behaviour is covered by pops_prop and test_core's ladder *)
let () = Pops_check.Fault.clear ()

let () =
  Alcotest.run "pops_sta"
    [
      ( "timing",
        [
          Alcotest.test_case "arrival monotone" `Quick test_arrival_monotone_along_chain;
          Alcotest.test_case "critical delay positive" `Quick test_critical_delay_positive;
          Alcotest.test_case "critical path structure" `Quick test_critical_path_structure;
          Alcotest.test_case "edges alternate" `Quick test_arrival_edges_alternate;
          Alcotest.test_case "upsizing driver helps" `Quick test_upsizing_driver_reduces_delay;
          Alcotest.test_case "slack" `Quick test_slack;
        ] );
      ( "paths",
        [
          Alcotest.test_case "extract critical" `Quick test_extract_critical;
          Alcotest.test_case "branch decomposition" `Quick test_extract_branches_match_netlist;
          Alcotest.test_case "rejects disconnected" `Quick test_extract_rejects_disconnected;
          Alcotest.test_case "critical >= spine" `Quick test_critical_equals_spine;
          Alcotest.test_case "k worst sorted+distinct" `Quick test_k_worst_sorted_distinct;
          Alcotest.test_case "apply sizing roundtrip" `Quick test_apply_sizing_roundtrip;
          Alcotest.test_case "optimized path improves STA" `Quick test_optimize_extracted_path_improves_sta;
          Alcotest.test_case "c17 reconvergence" `Quick test_c17_reconvergence;
          Alcotest.test_case "k worst on c17" `Quick test_k_worst_on_c17;
          Alcotest.test_case "input slope propagates" `Quick test_input_slope_propagates;
        ] );
      ( "paths-extra",
        [
          Alcotest.test_case "k=1 equals critical" `Quick test_k1_matches_critical;
          Alcotest.test_case "input-only window wraps" `Quick
            test_critical_window_wraps_input_only;
        ] );
      ( "report",
        [
          Alcotest.test_case "breakdown consistent" `Quick test_report_breakdown_consistent;
          Alcotest.test_case "renders" `Quick test_report_renders;
        ] );
      ( "power",
        [
          Alcotest.test_case "report" `Quick test_power_report;
          Alcotest.test_case "grows with sizing" `Quick test_power_grows_with_sizing;
        ] );
      ( "circuits",
        [
          Alcotest.test_case "profiles complete" `Quick test_profiles_complete;
          Alcotest.test_case "profiles materialize" `Quick test_profiles_materialize;
          Alcotest.test_case "table4 subset" `Quick test_table4_subset;
        ] );
      ( "integration",
        [
          Alcotest.test_case "protocol on c432, all domains" `Slow
            test_protocol_on_extracted_circuit_all_domains;
        ] );
      ( "amps",
        [
          Alcotest.test_case "tilos meets constraint" `Quick test_tilos_meets_constraint;
          Alcotest.test_case "tilos can't beat tmin" `Quick test_tilos_never_beats_tmin;
          Alcotest.test_case "random search near tmin" `Quick test_random_search_near_tmin;
          Alcotest.test_case "random search deterministic" `Quick test_random_search_deterministic;
          Alcotest.test_case "facade" `Quick test_amps_facade;
          qtest prop_pops_beats_or_ties_amps_area;
        ] );
    ]
