(* CSR-vs-legacy equivalence: the arena/CSR hot core must reproduce the
   record-based reference implementations bit for bit — arrivals, the
   critical delay and path, slacks, loads, k-worst paths — on the
   paper's benchmark suite, on random circuits through edit sequences,
   and at full-chip scale without a Stack_overflow.  The STA side is
   compared against test/timing_oracle, which answers every query from
   its own arrays. *)

module Tech = Pops_process.Tech
module Library = Pops_cell.Library
module Edge = Pops_delay.Edge
module Netlist = Pops_netlist.Netlist
module Transform = Pops_netlist.Transform
module Generator = Pops_netlist.Generator
module Logic = Pops_netlist.Logic
module Timing = Pops_sta.Timing
module Paths = Pops_sta.Paths
module Profiles = Pops_circuits.Profiles
module Rng = Pops_util.Rng

let qtest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xC5A0 |]) t
let tech = Tech.cmos025
let lib = Library.make tech

let arrival_opt get id edge =
  match get id edge with a -> Some a | exception Not_found -> None

(* the same pin-counting fold load_on performs, without the cache *)
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

(* CSR analyze vs the record-based reference: arrivals (time, slope,
   provenance), critical delay/path, per-node slacks and cached loads *)
let check_sta_equiv ?(check_loads = true) ~what t =
  let csr = Timing.analyze ~lib t in
  let ref_ = Timing_oracle.analyze ~lib t in
  let ids = Netlist.topological_order t in
  List.iter
    (fun id ->
      List.iter
        (fun edge ->
          match
            (arrival_opt (Timing.arrival csr) id edge,
             arrival_opt (Timing_oracle.arrival ref_) id edge)
          with
          | None, None -> ()
          | Some a, Some b ->
            if a.Timing.time <> b.Timing.time || a.Timing.slope <> b.Timing.slope
            then
              Alcotest.failf
                "%s: node %d arrival differs: %.17g/%.17g vs %.17g/%.17g" what id
                a.Timing.time a.Timing.slope b.Timing.time b.Timing.slope;
            if a.Timing.from_ <> b.Timing.from_ then
              Alcotest.failf "%s: node %d provenance differs" what id
          | Some _, None | None, Some _ ->
            Alcotest.failf "%s: node %d arrival presence differs" what id)
        [ Edge.Rising; Edge.Falling ])
    ids;
  if Timing.critical_delay csr <> Timing_oracle.critical_delay ref_ then
    Alcotest.failf "%s: critical delay differs: %.17g vs %.17g" what
      (Timing.critical_delay csr) (Timing_oracle.critical_delay ref_);
  if Timing.critical_path csr <> Timing_oracle.critical_path ref_ then
    Alcotest.failf "%s: critical path differs" what;
  let tc = 1.1 *. Timing_oracle.critical_delay ref_ in
  List.iter
    (fun id ->
      if Timing.slack csr ~tc id <> Timing_oracle.slack ref_ ~tc id then
        Alcotest.failf "%s: node %d slack differs" what id)
    ids;
  if check_loads then
    List.iter
      (fun id ->
        let got = Netlist.load_on t id in
        let expected = reference_load t id in
        if Float.abs (got -. expected) > 1e-9 *. Float.max 1. (Float.abs expected)
        then
          Alcotest.failf "%s: node %d load %.17g <> reference %.17g" what id got
            expected)
      ids

let check_k_worst_equiv ~what ?(k = 5) t =
  let arena = Paths.k_worst ~k ~lib t in
  let legacy = Paths.k_worst_reference ~k ~lib t in
  let nodes l = List.map (fun e -> e.Paths.nodes) l in
  if nodes arena <> nodes legacy then
    Alcotest.failf "%s: k_worst paths differ from the reference enumeration" what

(* --- the paper's benchmark suite ------------------------------------- *)

let test_profile_suite () =
  List.iter
    (fun (p : Profiles.t) ->
      let t, _ = Profiles.circuit tech p in
      check_sta_equiv ~what:p.Profiles.name t;
      check_k_worst_equiv ~what:p.Profiles.name t)
    Profiles.all

(* the two Builder fixtures; the chain's critical endpoint is its only,
   hence last, designated output *)
let test_fixtures () =
  check_sta_equiv ~what:"c17" (Pops_netlist.Builder.c17 tech);
  check_sta_equiv ~what:"inverter chain"
    (Pops_netlist.Builder.inverter_chain tech ~n:5 ~out_load:30.)

(* --- random circuits through edit sequences -------------------------- *)

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

let prop_csr_matches_legacy =
  QCheck.Test.make ~name:"CSR == legacy on random circuits + edit sequences"
    ~count:100
    QCheck.(pair (int_range 4 16) (int_range 0 1_000_000))
    (fun (path_gates, salt) ->
      let p =
        Generator.make_profile
          ~name:(Printf.sprintf "csr%d_%d" path_gates salt)
          ~path_gates ()
      in
      let t, _ = Generator.generate tech p in
      check_sta_equiv ~what:"fresh" t;
      check_k_worst_equiv ~what:"fresh" t;
      let rng = Rng.create (Int64.of_int (salt + (path_gates * 6_271))) in
      for step = 1 to 6 do
        let what = random_edit rng t in
        (match Netlist.validate t with
        | Ok () -> ()
        | Error m -> Alcotest.failf "edit %d (%s) broke invariants: %s" step what m);
        let what = Printf.sprintf "step %d (%s)" step what in
        check_sta_equiv ~what t;
        if step mod 3 = 0 then check_k_worst_equiv ~what t
      done;
      true)

(* --- copies carry the snapshot ------------------------------------------ *)

let bits a = Array.map Int64.bits_of_float a

(* every array of a snapshot, floats by their bits (dead ids hold nan) *)
let snapshot c =
  let module C = Netlist.Csr in
  ( [ C.node_of c; C.pos c; C.level_off c; C.kind_code c; C.vt_code c;
      C.fanin_off c; C.fanin c; C.fanout_off c; C.fanout c ],
    [ bits (C.cin c); bits (C.load c) ],
    (C.bound c, C.length c) )

(* the snapshot a rebuild gives: [restore] into a fresh netlist carries
   no snapshot, so its first [csr] builds one *)
let rebuilt t =
  let s = Netlist.create tech in
  Netlist.restore s ~from:t;
  Netlist.csr s

let check_snapshot ~what t =
  if snapshot (Netlist.csr t) <> snapshot (rebuilt t) then
    Alcotest.failf "%s: snapshot differs from a rebuild" what

(* the carried timing, updated, must equal a fresh analysis bit for bit *)
let check_timing ~what timing t =
  Timing.update timing;
  let fresh = Timing.critical_delay (Timing.analyze ~lib t) in
  let carried = Timing.critical_delay timing in
  if Int64.bits_of_float fresh <> Int64.bits_of_float carried then
    Alcotest.failf "%s: carried critical delay %h, fresh %h" what carried fresh

let copy_shape () =
  Generator.generate_scale tech ~name:"copy5k" ~gates:5_000 ~shape:Generator.Iscas

let test_copy_carries_snapshot () =
  let t = copy_shape () in
  ignore (Netlist.csr t);
  let g = List.nth (Netlist.gate_ids t) 7 in
  (* a resize the source's snapshot has not synced yet *)
  Netlist.set_cin t g (3. *. tech.Tech.cmin);
  let c = Netlist.copy t in
  let module C = Netlist.Csr in
  Alcotest.(check bool) "structure shared" true
    (C.node_of (Netlist.csr c) == C.node_of (Netlist.csr t));
  Alcotest.(check bool) "scalars owned" true (C.cin (Netlist.csr c) != C.cin (Netlist.csr t));
  check_snapshot ~what:"copy" c;
  check_snapshot ~what:"source" t

let test_copy_edits_stay_apart () =
  let t = copy_shape () in
  let tm_t = Timing.analyze ~lib t in
  let c = Netlist.copy t in
  let tm_c = Timing.analyze ~lib c in
  let gates = Array.of_list (Netlist.gate_ids t) in
  let cmin = tech.Tech.cmin in
  Netlist.set_cin c gates.(11) (6. *. cmin);
  check_timing ~what:"copy after its resize" tm_c c;
  check_snapshot ~what:"source after the copy's resize" t;
  check_timing ~what:"source after the copy's resize" tm_t t;
  Netlist.set_cin t gates.(23) (4. *. cmin);
  check_timing ~what:"source after its resize" tm_t t;
  check_snapshot ~what:"copy after the source's resize" c;
  check_timing ~what:"copy after the source's resize" tm_c c;
  ignore (Transform.insert_buffer t ~after:gates.(37));
  check_timing ~what:"source after its surgery" tm_t t;
  check_snapshot ~what:"copy after the source's surgery" c;
  check_timing ~what:"copy after the source's surgery" tm_c c;
  ignore (Transform.insert_buffer c ~after:gates.(41));
  check_timing ~what:"copy after its surgery" tm_c c;
  check_snapshot ~what:"source after the copy's surgery" t;
  check_timing ~what:"source after the copy's surgery" tm_t t;
  check_sta_equiv ~what:"source" t;
  check_sta_equiv ~what:"copy" c

(* --- full-chip scale -------------------------------------------------- *)

(* a 100k-gate grid is the largest size where running the legacy
   reference STA per test invocation is still cheap; the 1M legs below
   only use the CSR path *)
let test_scale_100k_equiv () =
  let t = Generator.generate_scale tech ~name:"equiv100k" ~gates:100_000 ~shape:Generator.Grid in
  check_sta_equiv ~check_loads:false ~what:"grid100k" t

(* one million gates, wide shape: validate_diags must finish in one
   O(V+E) sweep (< 1 s), STA and the arena k-worst must run without a
   Stack_overflow and actually produce paths *)
let test_scale_grid_1m () =
  let t = Generator.generate_scale tech ~name:"grid1m" ~gates:1_000_000 ~shape:Generator.Grid in
  (* settle the GC debt left by generation so the timed sweep measures
     the validation pass itself, not a piggy-backed major collection *)
  Gc.full_major ();
  let t0 = Sys.time () in
  let diags = Netlist.validate_diags t in
  let elapsed = Sys.time () -. t0 in
  if diags <> [] then
    Alcotest.failf "grid1m: validate_diags reported %d problems" (List.length diags);
  if elapsed >= 1.0 then
    Alcotest.failf "grid1m: validate_diags took %.2f s (budget 1 s)" elapsed;
  let timing = Timing.analyze ~lib t in
  Alcotest.(check bool) "positive critical delay" true (Timing.critical_delay timing > 0.);
  let worst = Paths.k_worst ~k:3 ~lib t in
  Alcotest.(check int) "k_worst found 3 paths" 3 (List.length worst)

(* one million gates, maximally deep shape: depth = gate count, so any
   depth-recursive traversal (STA, backtrack, cone walk, k-worst
   suffix pass) overflows the stack here if it regresses *)
let test_scale_spine_1m () =
  let gates = 1_000_000 in
  let t = Generator.generate_scale tech ~name:"spine1m" ~gates ~shape:Generator.Spine in
  Alcotest.(check int) "depth = gate count" gates (Netlist.depth t);
  let timing = Timing.analyze ~lib t in
  let path = Timing.critical_path timing in
  Alcotest.(check int) "critical path spans the chain" (gates + 1) (List.length path);
  Alcotest.(check int) "cone support reaches the inputs" 8
    (List.length (Logic.cone_support t (List.nth path (List.length path - 1))));
  (* the enumeration hits its pop bound long before the single output at
     depth 1M — the point is that it terminates in bounded space *)
  ignore (Paths.k_worst ~k:2 ~lib t)

let () =
  Alcotest.run "pops_csr"
    [
      ( "equivalence",
        [
          Alcotest.test_case "paper benchmark suite" `Quick test_profile_suite;
          Alcotest.test_case "c17 and an inverter chain" `Quick test_fixtures;
          qtest prop_csr_matches_legacy;
        ] );
      ( "copy",
        [
          Alcotest.test_case "copy carries the snapshot" `Quick test_copy_carries_snapshot;
          Alcotest.test_case "edits stay on their side" `Quick test_copy_edits_stay_apart;
        ] );
      ( "scale",
        [
          Alcotest.test_case "100k grid equivalence" `Slow test_scale_100k_equiv;
          Alcotest.test_case "1M grid: validate/STA/k-worst" `Slow test_scale_grid_1m;
          Alcotest.test_case "1M spine: no stack overflow" `Slow test_scale_spine_1m;
        ] );
    ]
