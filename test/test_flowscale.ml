(* The optimization loop's analysis against from-scratch oracles: the
   backward slack sweep against the record-based oracle of
   test/timing_oracle, the bounded cone selection against a brute-force
   ranking of every endpoint (on random edit-heavy circuits and at
   10k-gate scale), and the flow's final netlists and reports against
   pinned digests on the paper's benchmark suite and at 10k-gate
   scale. *)

module Tech = Pops_process.Tech
module Library = Pops_cell.Library
module Edge = Pops_delay.Edge
module Netlist = Pops_netlist.Netlist
module Transform = Pops_netlist.Transform
module Generator = Pops_netlist.Generator
module Timing = Pops_sta.Timing
module Paths = Pops_sta.Paths
module Flow = Pops_flow.Flow
module Protocol = Pops_core.Protocol
module Profiles = Pops_circuits.Profiles
module Rng = Pops_util.Rng

let qtest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xF10 |]) t
let tech = Tech.cmos025
let lib = Library.make tech
let same_f a b = a = b || (Float.is_nan a && Float.is_nan b)

let nan_of_not_found f id e = match f id e with r -> r | exception Not_found -> Float.nan

(* the lazy annotation against the record-based oracle at one id:
   required times (both edges) and worst slack, bit for bit *)
let check_slack_at ~what s oracle id =
  List.iter
    (fun e ->
      let a = nan_of_not_found (Timing.required s) id e
      and b = nan_of_not_found (Timing_oracle.required oracle) id e in
      if not (same_f a b) then
        Alcotest.failf "%s: node %d required differs: %.17g vs %.17g" what id a b)
    [ Edge.Rising; Edge.Falling ];
  let a = Timing.node_slack s id and b = Timing_oracle.node_slack oracle id in
  if not (same_f a b) then
    Alcotest.failf "%s: node %d slack differs: %.17g vs %.17g" what id a b

let oracle_of ~tc t = Timing_oracle.slacks (Timing_oracle.analyze ~lib t) ~tc

(* lazy slacks for [tc] vs the record-based oracle over every id ever
   allocated (deleted ones must read undefined) and two out-of-range
   ids each side *)
let check_slacks_oracle ~what ~tc s t =
  let oracle = oracle_of ~tc t in
  for id = -2 to Netlist.id_bound t + 1 do
    check_slack_at ~what s oracle id
  done

(* a random subset of the same ids in random order, so the lazily swept
   suffix is entered from arbitrary points before the full comparison *)
let check_random_queries ~what ~tc rng s t =
  let oracle = oracle_of ~tc t in
  let ids = Array.init (Netlist.id_bound t + 4) (fun i -> i - 2) in
  for i = Array.length ids - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = ids.(i) in
    ids.(i) <- ids.(j);
    ids.(j) <- x
  done;
  for i = 0 to Rng.int rng (Array.length ids) do
    check_slack_at ~what s oracle ids.(i)
  done

(* Brute-force cone selection: rank every output with a negative slack
   by (slack, id) off a fresh record-based analysis, then probe the
   first [max 64 (16 k)] in order for gate-disjoint endpoint-side
   windows of at most [max_cone] nodes, cut from the full critical path
   through the endpoint. *)
let oracle_cones ~k ~max_cone ~tc t =
  let tm = Timing_oracle.analyze ~lib t in
  let s = Timing_oracle.slacks tm ~tc in
  let ranked =
    List.sort_uniq compare
      (List.filter_map
         (fun (id, _) ->
           let sl = Timing_oracle.node_slack s id in
           if sl < 0. then Some (sl, id) else None)
         (Netlist.outputs t))
  in
  let limit = max 64 (16 * k) in
  let stamped = Hashtbl.create 64 in
  let picked = ref [] in
  List.iteri
    (fun i (_, id) ->
      if i < limit && List.length !picked < k then begin
        let path = Timing_oracle.path_through tm id in
        let len = List.length path in
        let window = List.filteri (fun j _ -> j >= len - max_cone) path in
        let gates =
          List.filter
            (fun g ->
              match (Netlist.node t g).Netlist.kind with
              | Netlist.Cell _ -> true
              | Netlist.Primary_input -> false)
            window
        in
        if not (List.exists (Hashtbl.mem stamped) gates) then
          match Paths.extract ~lib t window with
          | e ->
            List.iter (fun g -> Hashtbl.replace stamped g ()) gates;
            picked := e.Paths.nodes :: !picked
          | exception Invalid_argument _ -> ()
      end)
    ranked;
  List.rev !picked

let check_selection ~what ~tc sel t =
  let live = Paths.k_worst_incr ~k:4 ~max_cone:48 ~lib sel in
  let nodes = List.map (fun (e : Paths.extracted) -> e.Paths.nodes) live in
  if nodes <> oracle_cones ~k:4 ~max_cone:48 ~tc t then
    Alcotest.failf "%s: cone selection differs from the brute-force oracle"
      what

(* Many violating endpoints on one spine: 63 output inverters hang off a
   20-inverter chain, ahead of two shorter independent chains.  The
   spine outputs tie on slack and rank first; only the first yields a
   disjoint cone.  The longer independent chain ranks 64th, the last
   candidate probed; the shorter one ranks 65th, past the bound. *)
let test_probe_bound () =
  let t = Netlist.create tech in
  let chain n =
    let rec go prev i =
      if i = n then prev
      else go (Netlist.add_gate t Pops_cell.Gate_kind.Inv [| prev |]) (i + 1)
    in
    go (Netlist.add_input t) 0
  in
  let spine = chain 20 in
  for _ = 1 to 63 do
    Netlist.set_output t
      (Netlist.add_gate t Pops_cell.Gate_kind.Inv [| spine |])
      ~load:30.
  done;
  let a = chain 14 in
  let b = chain 12 in
  Netlist.set_output t a ~load:30.;
  Netlist.set_output t b ~load:30.;
  let tm = Timing.analyze ~lib t in
  let tc = 0.2 *. Timing.critical_delay tm in
  let s = Timing.slacks_make tm ~tc in
  if not (Timing.node_slack s a < Timing.node_slack s b && Timing.node_slack s b < 0.)
  then Alcotest.fail "fixture: expected both chains violating, the longer worse";
  let sel = Paths.incr_make t s in
  check_selection ~what:"spine" ~tc sel t;
  let tails =
    List.map
      (fun (e : Paths.extracted) -> List.nth e.Paths.nodes (List.length e.Paths.nodes - 1))
      (Paths.k_worst_incr ~k:4 ~max_cone:48 ~lib sel)
  in
  match tails with
  | [ _; tail ] -> Alcotest.(check int) "second cone is the 64th candidate" a tail
  | l -> Alcotest.failf "expected 2 cones, got %d" (List.length l)

(* --- the slack engine on the paper's benchmark suite ------------------ *)

let test_slacks_profiles () =
  List.iter
    (fun (p : Profiles.t) ->
      let t, _ = Profiles.circuit tech p in
      let tm = Timing.analyze ~lib t in
      let tc = 0.8 *. Timing.critical_delay tm in
      check_slacks_oracle ~what:p.Profiles.name ~tc (Timing.slacks_make tm ~tc) t)
    Profiles.all

(* --- the slack engine and selection through random edit sequences ---- *)

let random_edit rng t =
  let gates = Array.of_list (Netlist.gate_ids t) in
  let any_gate () = gates.(Rng.int rng (Array.length gates)) in
  let pis = Array.of_list (Netlist.inputs t) in
  match Rng.int rng 6 with
  | 0 ->
    Netlist.set_cin t (any_gate ()) (tech.Tech.cmin *. Rng.log_range rng 1. 40.)
  | 1 -> Netlist.set_wire t (any_gate ()) (tech.Tech.cmin *. Rng.float rng 5.)
  | 2 -> ignore (Transform.insert_buffer t ~after:(any_gate ()))
  | 3 ->
    let g = any_gate () in
    let n = Netlist.node t g in
    let pin = Rng.int rng (Array.length n.Netlist.fanins) in
    Netlist.set_fanin t g ~pin pis.(Rng.int rng (Array.length pis))
  | 4 -> ignore (Transform.de_morgan t (any_gate ()))
  | _ -> Netlist.set_output t (any_gate ()) ~load:(Rng.float rng 50.)

(* One case: selection and slacks against their oracles after each of 6
   random edits.  After an edit the slacks are queried at random ids
   first — every other step after a second edit that nothing queried
   in between — then the critical delay and path are checked against a
   fresh oracle analysis, and only then do the selection and the full
   comparison run. *)
let slacks_and_selection (path_gates, salt) =
  let p =
    Generator.make_profile
      ~name:(Printf.sprintf "fs%d_%d" path_gates salt)
      ~path_gates ()
  in
  let t, _ = Generator.generate tech p in
  let tm = Timing.analyze ~lib t in
  (* a tight constraint so plenty of endpoints violate and there
     are critical cones to hand out *)
  let tc = 0.6 *. Timing.critical_delay tm in
  let s = Timing.slacks_make tm ~tc in
  let sel = Paths.incr_make t s in
  check_selection ~what:"initial" ~tc sel t;
  let rng = Rng.create (Int64.of_int (salt + (path_gates * 7_919))) in
  let queries = Rng.create (Int64.of_int ((salt * 31) + path_gates)) in
  for step = 1 to 6 do
    random_edit rng t;
    let what = Printf.sprintf "step %d" step in
    if step mod 2 = 0 then begin
      check_random_queries ~what ~tc queries s t;
      random_edit queries t
    end;
    check_random_queries ~what ~tc queries s t;
    let fresh = Timing_oracle.analyze ~lib t in
    if not (same_f (Timing.critical_delay tm) (Timing_oracle.critical_delay fresh)) then
      Alcotest.failf "%s: critical delay %.17g, fresh %.17g" what
        (Timing.critical_delay tm) (Timing_oracle.critical_delay fresh);
    if Timing.critical_path tm <> Timing_oracle.critical_path fresh then
      Alcotest.failf "%s: critical path differs from a fresh analysis" what;
    check_selection ~what ~tc sel t;
    check_slacks_oracle ~what ~tc s t
  done;
  true

let prop_slacks_and_selection =
  QCheck.Test.make
    ~name:"carried slacks + cone selection == oracles through edits"
    ~count:60
    QCheck.(pair (int_range 4 12) (int_range 0 1_000_000))
    slacks_and_selection

(* the case where a lazy sweep once served a value stored for an id
   deleted since (at step 2) *)
let test_deleted_since_sweep () = ignore (slacks_and_selection (5, 141280))

(* --- the flow against pinned digests ---------------------------------- *)

(* digest of the final netlist (kinds, Vt classes, fan-ins, sizes, wires,
   output loads) and of the whole report trace *)
let flow_digest t (r : Flow.report) =
  let b = Buffer.create 4096 in
  List.iter
    (fun id ->
      let n = Netlist.node t id in
      Printf.bprintf b "%d:%d:%d:%h:%h" id
        (Netlist.Csr.code_of_kind n.Netlist.kind)
        (Pops_process.Vt.to_int n.Netlist.vt)
        n.Netlist.cin n.Netlist.wire;
      Array.iter (Printf.bprintf b ",%d") n.Netlist.fanins;
      Buffer.add_char b ';')
    (Netlist.topological_order t);
  List.iter (fun (id, l) -> Printf.bprintf b "o%d:%h;" id l) (Netlist.outputs t);
  Printf.bprintf b "%s|%h|%h|%d|%d|%d"
    (Flow.outcome_to_string r.Flow.outcome)
    r.Flow.final_delay r.Flow.final_area r.Flow.buffers_added r.Flow.rewrites
    r.Flow.stale_decisions;
  List.iter
    (fun (it : Flow.iteration) ->
      Printf.bprintf b "|%d:%h:%s:%d" it.Flow.round it.Flow.critical_delay
        (Protocol.strategy_to_string it.Flow.strategy)
        it.Flow.path_gates)
    r.Flow.iterations;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* run the flow on a copy; the carried timing must agree with a fresh
   analysis of the final netlist, the logic must be preserved, and the
   result must match its pinned digest bit for bit *)
let check_flow ~what ~tc_ratio ~expect t =
  let t = Netlist.copy t in
  let tc = tc_ratio *. Timing.critical_delay (Timing.analyze ~lib t) in
  let r = Pops_robust.Outcome.get (Flow.optimize_o ~lib ~tc t) in
  let fresh = Timing.critical_delay (Timing.analyze ~lib t) in
  if not (same_f r.Flow.final_delay fresh) then
    Alcotest.failf "%s: final delay %.17g, fresh STA %.17g" what
      r.Flow.final_delay fresh;
  (match r.Flow.equivalence with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: flow broke equivalence: %s" what m);
  Alcotest.(check string) (what ^ " digest") expect (flow_digest t r)

(* a digest change is a change to the flow's output *)
let profile_digests =
  [
    ("Adder16", "8221c2ee03dbcebdf773b7146aa0ede0");
    ("fpd", "a454240bbfb18285bd3971ae5f3c3a4f");
    ("c432", "4513a0ca8ab88b7e0cdce1b3cce7e4ae");
    ("c499", "9b75a37b54bec06946582dba011f8ac6");
    ("c880", "1dcbee290e08b3f3c9469d9831ca918c");
    ("c1355", "c6b1f9d277e99e72042b499b8c170259");
    ("c1908", "6b90dcb4a5a8b41ec461e7451c307a92");
    ("c3540", "751682456b08cd0fb4830831f6ade68b");
    ("c5315", "36d291d3644931d2c6ad6192e1b84a1e");
    ("c6288", "19e4c5c2937028842950956690dee85e");
    ("c7552", "184fd1411eac633e48c4a960da764e1d");
  ]

let test_flow_profiles () =
  List.iter
    (fun (p : Profiles.t) ->
      let t, _ = Profiles.circuit tech p in
      check_flow ~what:p.Profiles.name ~tc_ratio:0.8
        ~expect:(List.assoc p.Profiles.name profile_digests)
        t)
    Profiles.all

(* --- scale ------------------------------------------------------------ *)

let iscas10k () =
  Generator.generate_scale tech ~name:"fs10k" ~gates:10_000
    ~shape:Generator.Iscas

(* ~1.5k violating endpoints stream through the bounded ranked prefix *)
let test_selection_10k () =
  let t = iscas10k () in
  let tm = Timing.analyze ~lib t in
  let tc = 0.9 *. Timing.critical_delay tm in
  check_selection ~what:"iscas10k" ~tc
    (Paths.incr_make t (Timing.slacks_make tm ~tc))
    t

let test_flow_scale_10k () =
  check_flow ~what:"iscas10k" ~tc_ratio:0.9
    ~expect:"48728da8bfb573dfaec33aff9005fb43" (iscas10k ())

(* a stray POPS_FAULT must not perturb this deterministic suite;
   fault behaviour is covered by pops_prop and test_core's ladder *)
let () = Pops_check.Fault.clear ()

let () =
  Alcotest.run "pops_flowscale"
    [
      ( "slacks",
        [
          Alcotest.test_case "paper benchmark suite" `Quick test_slacks_profiles;
          qtest prop_slacks_and_selection;
          Alcotest.test_case "an id deleted since the last sweep" `Quick
            test_deleted_since_sweep;
        ] );
      ( "cones",
        [ Alcotest.test_case "probe bound on a shared spine" `Quick test_probe_bound ] );
      ( "flow",
        [ Alcotest.test_case "paper benchmark suite" `Quick test_flow_profiles ] );
      ( "scale",
        [
          Alcotest.test_case "10k iscas selection" `Quick test_selection_10k;
          Alcotest.test_case "10k iscas equivalence" `Slow test_flow_scale_10k;
        ] );
    ]
