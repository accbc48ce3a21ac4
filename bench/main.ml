(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Verle et al., DATE 2005).  One kernel per experiment; the
   same kernels are also exposed as Bechamel micro-benchmarks (--measure)
   so their cost can be measured rigorously.

     dune exec bench/main.exe            # all experiments
     dune exec bench/main.exe fig2 table1
     dune exec bench/main.exe -- --list
     dune exec bench/main.exe -- --measure   # bechamel timing of kernels

   Absolute numbers differ from the paper (synthetic circuits, textbook
   0.25 um parameters, different host) — the *shapes* are the point; the
   paper's values are printed alongside where the paper gives them.  See
   EXPERIMENTS.md for the recorded comparison. *)

module Tech = Pops_process.Tech
module Gk = Pops_cell.Gate_kind
module Library = Pops_cell.Library
module Edge = Pops_delay.Edge
module Model = Pops_delay.Model
module Path = Pops_delay.Path
module Netlist = Pops_netlist.Netlist
module Generator = Pops_netlist.Generator
module Paths = Pops_sta.Paths
module Timing = Pops_sta.Timing
module NPower = Pops_sta.Power
module Transient = Pops_spice.Transient
module Bounds = Pops_core.Bounds
module Sens = Pops_core.Sensitivity
module Buffers = Pops_core.Buffers
module Restructure = Pops_core.Restructure
module Domains = Pops_core.Domains
module Tradeoff = Pops_core.Tradeoff
module Protocol = Pops_core.Protocol
module Profiles = Pops_circuits.Profiles
module Amps = Pops_amps.Amps
module Table = Pops_util.Table

let tech = Tech.cmos025
let lib = Library.make tech

(* --smoke: cut iteration counts so CI can exercise every code path in
   seconds; numbers produced under smoke are not recorded trajectories *)
let smoke = ref false

let ns x = x /. 1000.
let pct a b = if b = 0. then 0. else 100. *. (b -. a) /. b

(* memoised circuit materialisation and path extraction *)
let circuit_cache : (string, Netlist.t * int list) Hashtbl.t = Hashtbl.create 16

let circuit (p : Profiles.t) =
  match Hashtbl.find_opt circuit_cache p.Profiles.name with
  | Some c -> c
  | None ->
    let c = Profiles.circuit tech p in
    Hashtbl.add circuit_cache p.Profiles.name c;
    c

let extracted_path (p : Profiles.t) =
  let nl, spine = circuit p in
  (Paths.extract ~lib nl spine).Paths.path

let bounds_cache : (string, Bounds.t) Hashtbl.t = Hashtbl.create 16

let bounds_of (p : Profiles.t) =
  match Hashtbl.find_opt bounds_cache p.Profiles.name with
  | Some b -> b
  | None ->
    let b = Bounds.compute (extracted_path p) in
    Hashtbl.add bounds_cache p.Profiles.name b;
    b

let time_ms f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, 1000. *. (Unix.gettimeofday () -. t0))

let median_time_ms ~runs f =
  let times = Array.init runs (fun _ -> snd (time_ms f)) in
  Pops_util.Stats.median times

(* --- machine-readable results (BENCH_sta.json) --------------------- *)

(* trajectory tracking across PRs: every timing-relevant kernel records
   (kernel, circuit, size, ns/op [, speedup]) and the run dumps them as a
   JSON array next to the repo root *)
type bench_record = {
  br_kernel : string;
  br_circuit : string;
  br_gates : int;
  br_ns_per_op : float;
  br_speedup : float option;
}

let bench_records : bench_record list ref = ref []

let record_bench ?speedup ~kernel ~circuit ~gates ns_per_op =
  bench_records :=
    { br_kernel = kernel; br_circuit = circuit; br_gates = gates;
      br_ns_per_op = ns_per_op; br_speedup = speedup }
    :: !bench_records

let write_bench_json () =
  match !bench_records with
  | [] -> ()
  | records ->
    let file = "BENCH_sta.json" in
    let oc = open_out file in
    let json_float x =
      if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
      else Printf.sprintf "%.6g" x
    in
    output_string oc "[\n";
    List.iteri
      (fun i r ->
        Printf.fprintf oc
          "  {\"kernel\": %S, \"circuit\": %S, \"gates\": %d, \"ns_per_op\": %s%s}%s\n"
          r.br_kernel r.br_circuit r.br_gates
          (json_float r.br_ns_per_op)
          (match r.br_speedup with
          | Some s -> Printf.sprintf ", \"speedup\": %s" (json_float s)
          | None -> "")
          (if i = List.length records - 1 then "" else ","))
      (List.rev records);
    output_string oc "]\n";
    close_out oc;
    Printf.printf "wrote %s (%d records)\n%!" file (List.length records)

(* ----------------------------------------------------------------- *)
(* Fig. 1: sensitivity of the path delay to gate sizing — the Tmin    *)
(* fixed-point trajectory from the minimum-drive initial solution.    *)
(* ----------------------------------------------------------------- *)

let path11 () =
  Path.of_kinds ~lib ~branch:5. ~c_out:150.
    [ Gk.Inv; Gk.Nand 2; Gk.Inv; Gk.Nor 2; Gk.Nand 3; Gk.Inv; Gk.Aoi21;
      Gk.Inv; Gk.Nand 2; Gk.Nor 3; Gk.Inv ]

let fig1 () =
  let p = path11 () in
  let trace = Bounds.tmin_trace p in
  let b = Bounds.compute p in
  let t = Table.create ~title:"Fig.1 - Tmin iteration trajectory (11-gate path)"
      [ ("iter", Table.Right); ("Sum Cin/Cref", Table.Right); ("delay (ps)", Table.Right) ]
  in
  let n_trace = List.length trace in
  List.iteri
    (fun i pt ->
      (* subsample the tail of the convergence for readability *)
      if i <= 10 || i mod 5 = 0 || i = n_trace - 1 then
        Table.add_row t
          [ string_of_int i;
            Table.cell_f ~decimals:1 pt.Bounds.sum_cin_ratio;
            Table.cell_f ~decimals:1 pt.Bounds.delay ])
    trace;
  Table.print t;
  Printf.printf "Tmax (min drive) = %.1f ps; Tmin (converged) = %.1f ps; iterations = %d\n"
    b.Bounds.tmax b.Bounds.tmin (List.length trace - 1);
  Printf.printf
    "shape check: delay descends monotonically from Tmax to Tmin while area grows,\n\
     and the final value is independent of the initial solution (see tests).\n"

(* ----------------------------------------------------------------- *)
(* Fig. 2: minimum delay Tmin, POPS vs AMPS, SPICE-validated.         *)
(* ----------------------------------------------------------------- *)

let fig2 () =
  let t = Table.create ~title:"Fig.2 - Tmin: POPS (deterministic) vs AMPS (pseudo-random)"
      [ ("circuit", Table.Left); ("POPS (ns)", Table.Right); ("AMPS (ns)", Table.Right);
        ("sim POPS (ns)", Table.Right); ("AMPS-POPS", Table.Right);
        ("paper POPS (ns)", Table.Right) ]
  in
  List.iter
    (fun (p : Profiles.t) ->
      let path = extracted_path p in
      let b = bounds_of p in
      let amps = Amps.minimum_delay path in
      let sim = Transient.simulate_path_worst ~steps_per_stage:600 path b.Bounds.sizing_tmin in
      Table.add_row t
        [ p.Profiles.name;
          Table.cell_f ~decimals:2 (ns b.Bounds.tmin);
          Table.cell_f ~decimals:2 (ns amps.Amps.delay);
          Table.cell_f ~decimals:2 (ns sim.Transient.total_delay);
          Printf.sprintf "%+.1f%%" (pct b.Bounds.tmin amps.Amps.delay
                                    |> fun x -> -.x);
          (match p.Profiles.paper_tmin_sizing_ns with
          | Some v -> Table.cell_f ~decimals:2 v
          | None -> "-") ])
    Profiles.fig2_suite;
  Table.print t;
  Printf.printf
    "shape check: POPS Tmin <= AMPS Tmin on every circuit (the deterministic bound\n\
     is never beaten by random search), and the simulator confirms the value.\n"

(* ----------------------------------------------------------------- *)
(* Fig. 3: constant-sensitivity design-space exploration.             *)
(* ----------------------------------------------------------------- *)

let fig3 () =
  let p = path11 () in
  let b = Bounds.compute p in
  let t = Table.create ~title:"Fig.3 - constant sensitivity method (11-gate path)"
      [ ("a (ps/um)", Table.Right); ("Sum W (um)", Table.Right); ("delay (ps)", Table.Right);
        ("delay/Tmin", Table.Right) ]
  in
  let sample a =
    let x = Sens.solve_worst ~a p in
    (Path.area p x, Path.delay_worst p x)
  in
  List.iter
    (fun a ->
      let area, delay = sample a in
      Table.add_row t
        [ Printf.sprintf "%.3f" a; Table.cell_f ~decimals:1 area;
          Table.cell_f ~decimals:1 delay; Table.cell_f ~decimals:2 (delay /. b.Bounds.tmin) ])
    [ 0.; -0.02; -0.06; -0.2; -0.6; -0.8; -2.; -8.; -30. ];
  Table.print t;
  Printf.printf
    "shape check (paper Fig.3): a = 0 is the minimum delay; decreasing a trades\n\
     delay for area monotonically, sweeping the whole design space.\n"

(* ----------------------------------------------------------------- *)
(* Fig. 4: area at Tc = 1.2 Tmin, POPS vs AMPS.                       *)
(* ----------------------------------------------------------------- *)

let fig4 () =
  let t = Table.create ~title:"Fig.4 - area Sum W at hard constraint Tc = 1.2 Tmin"
      [ ("circuit", Table.Left); ("POPS (um)", Table.Right); ("AMPS (um)", Table.Right);
        ("AMPS vs POPS", Table.Right) ]
  in
  List.iter
    (fun (p : Profiles.t) ->
      let path = extracted_path p in
      let b = bounds_of p in
      let tc = 1.2 *. b.Bounds.tmin in
      match Sens.size_for_constraint path ~tc with
      | Error (`Infeasible _) -> ()
      | Ok r ->
        let amps = Amps.size_for_constraint path ~tc in
        Table.add_row t
          [ p.Profiles.name;
            Table.cell_f ~decimals:0 r.Sens.area;
            Table.cell_f ~decimals:0 amps.Amps.area;
            Printf.sprintf "%+.1f%%" (-.pct amps.Amps.area r.Sens.area) ])
    Profiles.fig4_suite;
  Table.print t;
  Printf.printf
    "shape check (paper Fig.4): the constant-sensitivity distribution never needs\n\
     more area than the iterative industrial flow at the same constraint (the\n\
     equal-delay Sutherland distribution is compared in the ablations - it\n\
     oversizes loaded stages dramatically, exactly as Section 3.2 argues).\n"

(* ----------------------------------------------------------------- *)
(* Table 1: CPU time for constraint satisfaction, POPS vs AMPS.       *)
(* ----------------------------------------------------------------- *)

let table1 () =
  let t = Table.create
      ~title:"Table 1 - CPU time to satisfy Tc = 1.2 Tmin (this host) + paper values"
      [ ("circuit", Table.Left); ("gates", Table.Right);
        ("POPS (ms)", Table.Right); ("AMPS (ms)", Table.Right); ("ratio", Table.Right);
        ("retimings POPS", Table.Right); ("retimings AMPS", Table.Right);
        ("paper POPS", Table.Right); ("paper AMPS", Table.Right); ("paper ratio", Table.Right) ]
  in
  List.iter
    (fun (p : Profiles.t) ->
      let path = extracted_path p in
      let b = bounds_of p in
      let tc = 1.2 *. b.Bounds.tmin in
      let sweeps0 = Sens.sweeps_performed () in
      let pops_ms =
        median_time_ms ~runs:3 (fun () ->
            ignore (Sens.size_for_constraint path ~tc))
      in
      let pops_sweeps = (Sens.sweeps_performed () - sweeps0) / 3 in
      let amps_res = ref None in
      let amps_ms =
        median_time_ms ~runs:1 (fun () ->
            amps_res := Some (Amps.size_for_constraint path ~tc))
      in
      let amps_evals =
        match !amps_res with Some r -> r.Amps.evaluations | None -> 0
      in
      Table.add_row t
        [ p.Profiles.name; string_of_int p.Profiles.path_gates;
          Table.cell_f ~decimals:1 pops_ms;
          Table.cell_f ~decimals:1 amps_ms;
          Printf.sprintf "%.0fx" (amps_ms /. Float.max 0.01 pops_ms);
          Printf.sprintf "%d" pops_sweeps; Printf.sprintf "%d" amps_evals;
          Table.cell_f ~decimals:0 p.Profiles.paper_cpu_pops_ms;
          Table.cell_f ~decimals:0 p.Profiles.paper_cpu_amps_ms;
          Printf.sprintf "%.0fx" (p.Profiles.paper_cpu_amps_ms /. p.Profiles.paper_cpu_pops_ms) ])
    Profiles.all;
  Table.print t;
  Printf.printf
    "shape check (paper Table 1): the deterministic distribution beats the\n\
     iterative baseline with a gap that grows with circuit size (TILOS retimes\n\
     every gate per step - quadratic in path length - while the sweep count of\n\
     the closed-form method barely moves).  The paper's uniform ~2 orders also\n\
     reflects AMPS's simulator-grade cost per evaluation, which our closed-form\n\
     baseline does not pay.\n"

(* ----------------------------------------------------------------- *)
(* Table 2: Flimit per gate, calculated vs simulated.                 *)
(* ----------------------------------------------------------------- *)

(* the simulator-side Flimit: same structures, delays measured by the
   transient simulator (the buffer keeps the analytically optimal size) *)
let flimit_simulated ~gate =
  let gate_cin = 4. *. tech.Tech.cmin in
  let gain f =
    let cload = f *. gate_cin in
    let p_direct = Path.of_kinds ~lib ~c_out:cload [ Gk.Inv; gate ] in
    let x_direct = Path.min_sizing p_direct in
    x_direct.(1) <- gate_cin;
    let d_direct =
      (Transient.simulate_path_worst ~steps_per_stage:500 p_direct x_direct)
        .Transient.total_delay
    in
    let p_buf = Path.of_kinds ~lib ~c_out:cload [ Gk.Inv; gate; Gk.Inv; Gk.Inv ] in
    let x0 = Path.min_sizing p_buf in
    x0.(1) <- gate_cin;
    let x_buf = Sens.solve_worst ~a:0. ~frozen:[ 1 ] ~x0 p_buf in
    let d_buf =
      (Transient.simulate_path_worst ~steps_per_stage:500 p_buf x_buf)
        .Transient.total_delay
    in
    d_direct -. d_buf
  in
  if gain 200. <= 0. then Float.infinity
  else if gain 1.5 >= 0. then 1.5
  else Pops_util.Numerics.bisect ~caller:"flimit_sim" ~tol:0.05 ~f:gain ~lo:1.5 ~hi:200. ()

let table2 () =
  let t = Table.create
      ~title:"Table 2 - fan-out limit Flimit for a gate driven by an inverter"
      [ ("gate", Table.Left); ("calculated", Table.Right); ("simulated", Table.Right);
        ("paper calc", Table.Right); ("paper sim", Table.Right) ]
  in
  let paper = [ ("inv", 5.7, 5.9); ("nand2", 4.9, 5.4); ("nand3", 4.5, 5.2);
                ("nor2", 3.8, 3.5); ("nor3", 2.7, 2.5) ] in
  List.iter
    (fun (gate, (paper_calc, paper_sim)) ->
      let calc = Buffers.flimit ~lib ~driver:Gk.Inv ~gate () in
      let sim = flimit_simulated ~gate in
      Table.add_row t
        [ Gk.name gate; Table.cell_f ~decimals:1 calc; Table.cell_f ~decimals:1 sim;
          Table.cell_f ~decimals:1 paper_calc; Table.cell_f ~decimals:1 paper_sim ])
    (List.map2
       (fun k (_, c, s) -> (k, (c, s)))
       [ Gk.Inv; Gk.Nand 2; Gk.Nand 3; Gk.Nor 2; Gk.Nor 3 ]
       paper);
  Table.print t;
  Printf.printf
    "shape check (paper Table 2): the limit decreases with the logical weight\n\
     (inv > nand2 > nand3 > nor2 > nor3 - the NOR gates are the inefficient ones)\n\
     and the independent transient simulation confirms the calculated values.\n"

(* ----------------------------------------------------------------- *)
(* Table 3: Tmin with sizing vs sizing + buffer insertion.            *)
(* ----------------------------------------------------------------- *)

let table3 () =
  let t = Table.create ~title:"Table 3 - minimum delay: sizing vs buffer insertion"
      [ ("circuit", Table.Left); ("sizing (ns)", Table.Right); ("buff (ns)", Table.Right);
        ("gain", Table.Right); ("buffers", Table.Right); ("paper gain", Table.Right) ]
  in
  List.iter
    (fun (p : Profiles.t) ->
      let path = extracted_path p in
      let b = bounds_of p in
      let r = Buffers.insert_global ~objective:`Tmin ~lib path in
      let paper_gain =
        match (p.Profiles.paper_tmin_sizing_ns, p.Profiles.paper_tmin_buff_ns) with
        | Some s, Some bu -> Printf.sprintf "%.0f%%" (100. *. (s -. bu) /. s)
        | Some _, None | None, Some _ | None, None -> "-"
      in
      Table.add_row t
        [ p.Profiles.name;
          Table.cell_f ~decimals:2 (ns b.Bounds.tmin);
          Table.cell_f ~decimals:2 (ns r.Buffers.delay);
          Printf.sprintf "%.0f%%" (pct r.Buffers.delay b.Bounds.tmin);
          Printf.sprintf "%dp+%ds"
            (List.length r.Buffers.inserted_after)
            (List.length r.Buffers.shields);
          paper_gain ])
    Profiles.all;
  Table.print t;
  Printf.printf
    "shape check (paper Table 3): buffer insertion improves the minimum delay by\n\
     a few percent up to ~20%% depending on the path structure, never worsens it.\n"

(* ----------------------------------------------------------------- *)
(* Fig. 6: delay-area trade-off, sizing vs buffering; domains.        *)
(* ----------------------------------------------------------------- *)

let fig6 () =
  (* the paper uses a 13-gate array with a loaded middle node *)
  let nor3 = Library.find lib (Gk.Nor 3) in
  let base =
    Path.of_kinds ~lib ~c_out:100.
      [ Gk.Inv; Gk.Nand 2; Gk.Inv; Gk.Nor 2; Gk.Inv; Gk.Nand 3; Gk.Nor 3;
        Gk.Inv; Gk.Nand 2; Gk.Inv; Gk.Nor 2; Gk.Nand 2; Gk.Inv ]
  in
  let p = Path.with_stage_replaced base ~at:6 { Path.cell = nor3; branch = 220. } in
  let plain, buffered = Tradeoff.sizing_vs_buffering ~lib ~points:18 p in
  let b = Bounds.compute p in
  let t = Table.create ~title:"Fig.6 - delay vs area: sizing (full line) vs buffer insertion (dotted)"
      [ ("delay (ps)", Table.Right); ("area sizing (um)", Table.Right);
        ("area buffered (um)", Table.Right); ("domain", Table.Left) ]
  in
  let area_at curve d =
    (* smallest area on the curve achieving delay <= d *)
    List.fold_left
      (fun acc pt -> if pt.Tradeoff.delay <= d then Some pt.Tradeoff.area else acc)
      None curve
  in
  let cell = function Some a -> Table.cell_f ~decimals:1 a | None -> "infeasible" in
  List.iter
    (fun ratio ->
      let d = ratio *. b.Bounds.tmin in
      let dom = Domains.classify ~tmin:b.Bounds.tmin ~tc:d in
      Table.add_row t
        [ Table.cell_f ~decimals:0 d; cell (area_at plain d); cell (area_at buffered d);
          Domains.to_string dom ])
    [ 0.95; 1.0; 1.05; 1.1; 1.2; 1.4; 1.7; 2.0; 2.5; 3.0; 4.0 ];
  Table.print t;
  (match Tradeoff.crossover_delay plain buffered with
  | Some d when d <= 1.02 *. (List.hd plain).Tradeoff.delay ->
    Printf.printf "the buffered front dominates the whole sampled range\n"
  | Some d ->
    Printf.printf "buffering starts paying at delays below %.1f ps (= %.2f Tmin)\n" d
      (d /. b.Bounds.tmin)
  | None -> Printf.printf "curves do not cross on the sampled range\n");
  Printf.printf
    "domain boundaries (paper Fig.6): hard Tc < %.1f ps (1.2 Tmin), weak Tc > %.1f ps\n\
     (2.5 Tmin).  shape check: under weak constraints the curves coincide; under\n\
     hard constraints the buffered structure reaches delays sizing cannot, at far\n\
     lower area.\n"
    (Domains.hard_ratio *. b.Bounds.tmin)
    (Domains.weak_ratio *. b.Bounds.tmin)

(* ----------------------------------------------------------------- *)
(* Fig. 8 (+ Fig. 7): area per constraint domain and method.          *)
(* ----------------------------------------------------------------- *)

let fig8 () =
  let domains = [ Domains.Weak; Domains.Medium; Domains.Hard ] in
  List.iter
    (fun domain ->
      let t = Table.create
          ~title:(Printf.sprintf "Fig.8 - area Sum W under %s constraint (Tc = %.1f Tmin)"
                    (Domains.to_string domain)
                    (Domains.representative_tc ~tmin:1. domain))
          [ ("circuit", Table.Left); ("Sizing (um)", Table.Right);
            ("Local Buff (um)", Table.Right); ("Global Buff (um)", Table.Right);
            ("protocol picks", Table.Left) ]
      in
      List.iter
        (fun (p : Profiles.t) ->
          let path = extracted_path p in
          let b = bounds_of p in
          let tc = Domains.representative_tc ~tmin:b.Bounds.tmin domain in
          let sizing_area =
            match Sens.size_for_constraint path ~tc with
            | Ok r -> Table.cell_f ~decimals:0 r.Sens.area
            | Error _ -> "infeasible"
          in
          let local =
            (* the fixed local recipe: shield every critical node, then
               redistribute the constraint - no per-move evaluation or
               rollback (that is what makes Global "global") *)
            let nodes = Buffers.critical_nodes ~lib path (Path.min_sizing path) in
            let shielded, shield_area =
              List.fold_left
                (fun (q, a) at ->
                  match Buffers.shield_stage ~lib q ~at with
                  | Some (q', sh) -> (q', a +. sh.Buffers.shield_area)
                  | None -> (q, a))
                (path, 0.) nodes
            in
            match Sens.size_for_constraint shielded ~tc with
            | Ok r -> Table.cell_f ~decimals:0 (r.Sens.area +. shield_area)
            | Error _ -> "infeasible"
          in
          let glob = Buffers.insert_global ~objective:(`Area_at tc) ~lib path in
          let glob_area =
            if glob.Buffers.delay <= tc *. 1.005 then
              Table.cell_f ~decimals:0 glob.Buffers.area
            else "infeasible"
          in
          let report = Protocol.run ~lib ~tc path in
          Table.add_row t
            [ p.Profiles.name; sizing_area; local; glob_area;
              Protocol.strategy_to_string report.Protocol.strategy ])
        Profiles.all;
      Table.print t)
    domains;
  Printf.printf
    "shape check (paper Fig.8): under weak and medium constraints the methods are\n\
     nearly equivalent; under the hard constraint buffer insertion with global\n\
     sizing yields an important area saving.  The last column exercises the full\n\
     protocol of Fig.7.\n"

(* ----------------------------------------------------------------- *)
(* Table 4: buffer insertion vs logic restructuring.                  *)
(* ----------------------------------------------------------------- *)

let table4 () =
  List.iter
    (fun (label, ratio) ->
      let t = Table.create
          ~title:(Printf.sprintf "Table 4 - buffers vs De Morgan restructuring (%s constraint, Tc = %.2f Tmin)"
                    label ratio)
          [ ("circuit", Table.Left); ("buff (um)", Table.Right);
            ("restruct (um)", Table.Right); ("gain", Table.Right);
            ("paper gain", Table.Right) ]
      in
      let paper_gain =
        match label with
        | "hard" -> [ ("c1355", "n/a"); ("c1908", "16%"); ("c5315", "11%"); ("c7552", "11%") ]
        | _ -> [ ("c1355", "4%"); ("c1908", "11%"); ("c5315", "6%"); ("c7552", "6%") ]
      in
      List.iter
        (fun (p : Profiles.t) ->
          let path = extracted_path p in
          let b = bounds_of p in
          let tc = ratio *. b.Bounds.tmin in
          let buf = Buffers.insert_global ~objective:(`Area_at tc) ~lib path in
          let buf_cell =
            if buf.Buffers.delay <= tc *. 1.005 then Table.cell_f ~decimals:0 buf.Buffers.area
            else "infeasible"
          in
          let restr = Restructure.optimize ~lib path ~tc in
          let restr_area =
            match restr with
            | Some o -> Some o.Restructure.o_area
            | None -> None
          in
          let restr_cell =
            match restr_area with
            | Some a -> Table.cell_f ~decimals:0 a
            | None -> "infeasible"
          in
          let gain =
            match restr_area with
            | Some a when buf.Buffers.delay <= tc *. 1.005 ->
              Printf.sprintf "%+.0f%%" (pct a buf.Buffers.area)
            | Some _ | None -> "-"
          in
          Table.add_row t
            [ p.Profiles.name; buf_cell; restr_cell; gain;
              (try List.assoc p.Profiles.name paper_gain with Not_found -> "-") ])
        Profiles.table4_suite;
      Table.print t)
    [ ("hard", 1.1); ("medium", 1.8) ];
  Printf.printf
    "shape check (paper Table 4): replacing loaded NOR gates by their NAND dual\n\
     (with the conserving inverters) costs less area than buffering them, and the\n\
     saving is larger under the hard constraint.\n"

(* ----------------------------------------------------------------- *)
(* Ablations: the design choices DESIGN.md calls out.                 *)
(* ----------------------------------------------------------------- *)

let ablation () =
  let p_full = path11 () in
  let b_full = Bounds.compute p_full in
  (* model terms *)
  let t = Table.create ~title:"Ablation A - delay-model terms (11-gate path)"
      [ ("model", Table.Left); ("Tmin (ps)", Table.Right); ("vs full", Table.Right);
        ("sim/model at Tmin", Table.Right) ]
  in
  let variants =
    [ ("full (slope + coupling)", Model.default_opts);
      ("no slope term", { Model.with_slope = false; with_coupling = true });
      ("no coupling term", { Model.with_slope = true; with_coupling = false });
      ("neither", { Model.with_slope = false; with_coupling = false }) ]
  in
  List.iter
    (fun (name, opts) ->
      let p =
        Path.of_kinds ~opts ~lib ~branch:5. ~c_out:150.
          [ Gk.Inv; Gk.Nand 2; Gk.Inv; Gk.Nor 2; Gk.Nand 3; Gk.Inv; Gk.Aoi21;
            Gk.Inv; Gk.Nand 2; Gk.Nor 3; Gk.Inv ]
      in
      let b = Bounds.compute p in
      (* simulate the sizing this model variant believes is optimal; the
         simulator always runs the full physics *)
      let sim =
        (Transient.simulate_path_worst ~steps_per_stage:500 p_full b.Bounds.sizing_tmin)
          .Transient.total_delay
      in
      let model_claim = b.Bounds.tmin in
      Table.add_row t
        [ name; Table.cell_f ~decimals:1 model_claim;
          Printf.sprintf "%+.1f%%" (-.pct model_claim b_full.Bounds.tmin);
          Table.cell_f ~decimals:2 (sim /. model_claim) ])
    variants;
  Table.print t;
  (* fixed point vs direct numerical minimisation *)
  let t2 = Table.create ~title:"Ablation B - link-equation fixed point vs numerical minimisation"
      [ ("method", Table.Left); ("Tmin (ps)", Table.Right); ("time (ms)", Table.Right) ]
  in
  let (tmin_fp, _), ms_fp = time_ms (fun () -> (b_full.Bounds.tmin, ())) in
  let ms_fp = ms_fp +. median_time_ms ~runs:3 (fun () -> ignore (Bounds.compute p_full)) in
  let numeric () =
    (* coordinate descent with golden section per stage *)
    let x = ref (Path.min_sizing p_full) in
    for _ = 1 to 40 do
      for j = 1 to Path.length p_full - 1 do
        let try_x v =
          let y = Array.copy !x in
          y.(j) <- v;
          Path.delay_avg p_full (Path.clamp_sizing p_full y)
        in
        let v, _ =
          Pops_util.Numerics.golden_section_min ~tol:1e-3 ~f:try_x
            ~lo:tech.Tech.cmin ~hi:(400. *. tech.Tech.cmin) ()
        in
        !x.(j) <- v
      done
    done;
    Path.delay_worst p_full !x
  in
  let tmin_num, ms_num = time_ms numeric in
  Table.add_row t2 [ "link-equation fixed point"; Table.cell_f ~decimals:1 tmin_fp;
                     Table.cell_f ~decimals:1 ms_fp ];
  Table.add_row t2 [ "coordinate golden-section"; Table.cell_f ~decimals:1 tmin_num;
                     Table.cell_f ~decimals:1 ms_num ];
  Table.print t2;
  (* constraint distribution methods *)
  let t3 = Table.create ~title:"Ablation C - constraint distribution at Tc = 1.2 Tmin (11-gate path)"
      [ ("method", Table.Left); ("area (um)", Table.Right); ("delay (ps)", Table.Right) ]
  in
  let tc = 1.2 *. b_full.Bounds.tmin in
  (match Sens.size_for_constraint p_full ~tc with
  | Ok r ->
    Table.add_row t3 [ "constant sensitivity"; Table.cell_f ~decimals:1 r.Sens.area;
                       Table.cell_f ~decimals:1 r.Sens.delay ]
  | Error _ -> ());
  let x_suth = Sens.sutherland p_full ~tc in
  Table.add_row t3 [ "equal delay (Sutherland)"; Table.cell_f ~decimals:1 (Path.area p_full x_suth);
                     Table.cell_f ~decimals:1 (Path.delay_worst p_full x_suth) ];
  let amps = Amps.size_for_constraint p_full ~tc in
  Table.add_row t3 [ "TILOS iterative"; Table.cell_f ~decimals:1 amps.Amps.area;
                     Table.cell_f ~decimals:1 amps.Amps.delay ];
  Table.print t3;
  (* Flimit-guided vs exhaustive buffer placement *)
  let nor3 = Library.find lib (Gk.Nor 3) in
  let heavy =
    let p = Path.of_kinds ~lib ~c_out:80.
        [ Gk.Inv; Gk.Nand 2; Gk.Inv; Gk.Nor 3; Gk.Inv; Gk.Nand 2; Gk.Inv ] in
    Path.with_stage_replaced p ~at:3 { Path.cell = nor3; branch = 250. }
  in
  let t4 = Table.create ~title:"Ablation D - buffer placement policy (loaded-NOR path, objective Tmin)"
      [ ("policy", Table.Left); ("Tmin (ps)", Table.Right); ("insertions tried", Table.Right) ]
  in
  let guided, ms_guided =
    time_ms (fun () -> Buffers.insert_global ~objective:`Tmin ~lib heavy)
  in
  ignore ms_guided;
  let exhaustive () =
    (* try a pair after every stage, greedily *)
    let best = ref (Bounds.compute heavy).Bounds.tmin and path = ref heavy in
    let improved = ref true and tried = ref 0 in
    while !improved do
      improved := false;
      let n = Path.length !path in
      let candidates = List.init n Fun.id in
      List.iter
        (fun at ->
          incr tried;
          let inv = Library.inverter lib in
          let p' = Path.with_stage_inserted !path ~at { Path.cell = inv; branch = 0. } in
          let p' = Path.with_stage_inserted p' ~at:(at + 1) { Path.cell = inv; branch = 0. } in
          let b = Bounds.compute p' in
          if b.Bounds.tmin < !best -. 1e-6 then begin
            best := b.Bounds.tmin;
            path := p';
            improved := true
          end)
        candidates
    done;
    (!best, !tried)
  in
  let (ex_tmin, ex_tried), _ = time_ms exhaustive in
  Table.add_row t4
    [ "Flimit-guided (protocol)"; Table.cell_f ~decimals:1 guided.Buffers.delay;
      string_of_int (List.length (Buffers.critical_nodes ~lib heavy (Path.min_sizing heavy))) ];
  Table.add_row t4 [ "exhaustive greedy"; Table.cell_f ~decimals:1 ex_tmin; string_of_int ex_tried ];
  Table.print t4;
  (* discrete drive grid: the price of a real library *)
  let t5 = Table.create
      ~title:"Ablation E - continuous sizing vs discrete drive grid (Tc = 1.3 Tmin)"
      [ ("circuit", Table.Left); ("continuous (um)", Table.Right);
        ("grid-legal (um)", Table.Right); ("overhead", Table.Right) ]
  in
  List.iter
    (fun name ->
      match Profiles.find name with
      | None -> ()
      | Some p -> (
        let path = extracted_path p in
        let b = bounds_of p in
        let tc = 1.3 *. b.Bounds.tmin in
        match Pops_core.Discrete.grid_overhead ~lib path ~tc with
        | Some (cont, legal) ->
          Table.add_row t5
            [ name; Table.cell_f ~decimals:0 cont; Table.cell_f ~decimals:0 legal;
              Printf.sprintf "+%.1f%%" (100. *. (legal -. cont) /. cont) ]
        | None -> Table.add_row t5 [ name; "infeasible"; ""; "" ]))
    [ "fpd"; "c432"; "c880"; "c1908" ];
  Table.print t5;
  (* process corners: the skewed ones exercise the polarity machinery *)
  let t6 = Table.create ~title:"Ablation F - process corners (11-gate path)"
      [ ("corner", Table.Left); ("Tmin (ps)", Table.Right);
        ("rise/fall @Tmin", Table.Right); ("TT sizing delay (ps)", Table.Right) ]
  in
  let tt_sizing = (Bounds.compute p_full).Bounds.sizing_tmin in
  List.iter
    (fun corner ->
      let techc = Tech.at_corner tech corner in
      let libc = Library.make techc in
      let pc =
        Path.of_kinds ~lib:libc ~branch:5. ~c_out:150.
          [ Gk.Inv; Gk.Nand 2; Gk.Inv; Gk.Nor 2; Gk.Nand 3; Gk.Inv; Gk.Aoi21;
            Gk.Inv; Gk.Nand 2; Gk.Nor 3; Gk.Inv ]
      in
      let bc = Bounds.compute pc in
      let dr = Path.delay (Path.with_input_edge pc Edge.Rising) bc.Bounds.sizing_tmin in
      let df = Path.delay (Path.with_input_edge pc Edge.Falling) bc.Bounds.sizing_tmin in
      Table.add_row t6
        [ Tech.corner_name corner;
          Table.cell_f ~decimals:1 bc.Bounds.tmin;
          Printf.sprintf "%.2f" (dr /. df);
          Table.cell_f ~decimals:1 (Path.delay_worst pc tt_sizing) ])
    [ Tech.TT; Tech.SS; Tech.FF; Tech.SF; Tech.FS ];
  Table.print t6;
  (* long-wire repeater insertion (the refs [5,6] companion problem) *)
  let t7 = Table.create ~title:"Ablation G - repeater insertion on global wires (load 10 fF)"
      [ ("wire (mm)", Table.Right); ("unrepeated (ps)", Table.Right);
        ("repeated (ps)", Table.Right); ("repeaters", Table.Right);
        ("size (fF)", Table.Right) ]
  in
  List.iter
    (fun len ->
      let wire = Pops_core.Repeaters.wire_of_length len in
      let un =
        (* same 8x-minimum upstream driver as the repeated variant *)
        Pops_core.Repeaters.unrepeated_delay ~lib wire
          ~driver_cin:(8. *. tech.Tech.cmin) ~cload:10.
      in
      let sol = Pops_core.Repeaters.optimize ~lib wire ~cload:10. in
      Table.add_row t7
        [ Table.cell_f ~decimals:1 len; Table.cell_f ~decimals:0 un;
          Table.cell_f ~decimals:0 sol.Pops_core.Repeaters.delay;
          string_of_int sol.Pops_core.Repeaters.segments;
          Table.cell_f ~decimals:1 sol.Pops_core.Repeaters.repeater_cin ])
    [ 1.; 2.; 4.; 8.; 16. ];
  Table.print t7;
  Printf.printf
    "ablation summary: the slope and coupling terms both matter for accuracy\n\
     against the simulator; the fixed point matches direct minimisation at a\n\
     fraction of the cost; constant sensitivity dominates the alternative\n\
     distributions; Flimit guidance finds the exhaustive answer with a handful\n\
     of candidates.\n"

(* ----------------------------------------------------------------- *)
(* Extension: the introduction's margin argument, quantified.         *)
(* "the uncertainty in routing capacitance estimation imposes ... very *)
(* large safety margin resulting in oversized designs"                 *)
(* ----------------------------------------------------------------- *)

let margins () =
  let p = Option.get (Profiles.find "c432") in
  let path = extracted_path p in
  let b = bounds_of p in
  let tc = 1.5 *. b.Bounds.tmin in
  let sigma = 0.15 in
  let t = Table.create
      ~title:(Printf.sprintf
                "Extension - guard-band margin vs area and yield (c432, Tc = 1.5 Tmin, 15%% load uncertainty)")
      [ ("margin", Table.Right); ("area (um)", Table.Right);
        ("nominal delay (ps)", Table.Right); ("yield", Table.Right) ]
  in
  List.iter
    (fun margin ->
      let g = Pops_core.Margins.guardband ~margin ~tc path in
      if g.Pops_core.Margins.feasible then begin
        let y =
          Pops_core.Margins.timing_yield ~samples:400 ~sigma ~tc path
            g.Pops_core.Margins.sizing
        in
        Table.add_row t
          [ Printf.sprintf "%.0f%%" (100. *. margin);
            Table.cell_f ~decimals:0 g.Pops_core.Margins.area;
            Table.cell_f ~decimals:0 g.Pops_core.Margins.nominal_delay;
            Printf.sprintf "%.1f%%" (100. *. y.Pops_core.Margins.yield) ]
      end
      else Table.add_row t [ Printf.sprintf "%.0f%%" (100. *. margin); "infeasible" ])
    [ 0.; 0.05; 0.10; 0.15; 0.20; 0.30; 0.40 ];
  Table.print t;
  (match Pops_core.Margins.margin_for_yield ~samples:400 ~sigma ~tc path with
  | Some g ->
    Printf.printf
      "smallest margin for 95%% yield: %.1f%% (area %.0f um) - far below the\n\
       blanket 30-40%% guard bands the paper's introduction warns about.\n"
      (100. *. g.Pops_core.Margins.margin)
      g.Pops_core.Margins.area
  | None -> Printf.printf "no margin up to 50%% reaches 95%% yield\n")

(* ----------------------------------------------------------------- *)
(* Extension: netlist-level timing closure (the Path Selection loop). *)
(* Not a paper table - the flow the original tool ran end to end.     *)
(* ----------------------------------------------------------------- *)

let flow () =
  let t = Table.create
      ~title:"Extension - Path Selection flow: close each netlist at 80% of its initial delay"
      [ ("circuit", Table.Left); ("initial (ns)", Table.Right); ("final (ns)", Table.Right);
        ("outcome", Table.Left); ("rounds", Table.Right); ("buffers", Table.Right);
        ("area delta", Table.Right); ("logic", Table.Left) ]
  in
  List.iter
    (fun name ->
      match Profiles.find name with
      | None -> ()
      | Some p ->
        let nl, _ = Profiles.circuit tech p in
        let nl = Netlist.copy nl in
        let d0 = Timing.critical_delay (Timing.analyze ~lib nl) in
        let tc = 0.8 *. d0 in
        let r = Pops_flow.Flow.optimize ~lib ~tc nl in
        Table.add_row t
          [ name;
            Table.cell_f ~decimals:2 (ns r.Pops_flow.Flow.initial_delay);
            Table.cell_f ~decimals:2 (ns r.Pops_flow.Flow.final_delay);
            (match r.Pops_flow.Flow.outcome with
            | Pops_flow.Flow.Met -> "met"
            | Pops_flow.Flow.No_progress -> "no-progress"
            | Pops_flow.Flow.Budget_exhausted -> "budget");
            string_of_int (List.length r.Pops_flow.Flow.iterations);
            string_of_int r.Pops_flow.Flow.buffers_added;
            Printf.sprintf "%+.1f%%"
              (100. *. (r.Pops_flow.Flow.final_area -. r.Pops_flow.Flow.initial_area)
               /. r.Pops_flow.Flow.initial_area);
            (match r.Pops_flow.Flow.equivalence with Ok () -> "PASS" | Error _ -> "FAIL") ])
    [ "fpd"; "c432"; "c499"; "c880"; "c1355"; "c1908" ];
  Table.print t

(* ----------------------------------------------------------------- *)
(* sta_incr: incremental event-driven re-timing vs from-scratch STA.   *)
(* The POPS loop re-times after every edit; this experiment measures   *)
(* what the incremental engine saves on realistic edit traffic and     *)
(* asserts the arrivals stay bit-identical to a cold analysis.         *)
(* ----------------------------------------------------------------- *)

let assert_bit_identical ~what nl timing =
  let fresh = Timing.analyze ~lib nl in
  List.iter
    (fun id ->
      List.iter
        (fun edge ->
          let a = try Some (Timing.arrival timing id edge) with Not_found -> None in
          let b = try Some (Timing.arrival fresh id edge) with Not_found -> None in
          match (a, b) with
          | None, None -> ()
          | Some a, Some b
            when a.Timing.time = b.Timing.time && a.Timing.slope = b.Timing.slope -> ()
          | _ -> failwith (Printf.sprintf "sta_incr: %s: node %d diverged" what id))
        [ Edge.Rising; Edge.Falling ])
    (Netlist.topological_order nl)

let sta_incr () =
  let t = Table.create
      ~title:"sta_incr - incremental Timing.update vs from-scratch Timing.analyze"
      [ ("circuit", Table.Left); ("gates", Table.Right);
        ("full (us)", Table.Right); ("incr set_cin (us)", Table.Right);
        ("speedup", Table.Right); ("trace edits", Table.Right);
        ("trace speedup", Table.Right); ("arrivals", Table.Left) ]
  in
  let largest =
    List.fold_left
      (fun acc (p : Profiles.t) ->
        match acc with
        | Some (b : Profiles.t) when b.Profiles.path_gates >= p.Profiles.path_gates -> acc
        | _ -> Some p)
      None Profiles.all
    |> Option.get
  in
  (* wide, shallow layered circuit — the shape of real netlists (ISCAS
     depths are a few tens of levels at thousands of gates); the profile
     generator's circuits are one deep spine, where a single edit's
     fan-out cone is half the design and incrementality cannot pay *)
  let make_grid ~width ~depth =
    let nl = Netlist.create tech in
    let pis = Array.init width (fun _ -> Netlist.add_input nl) in
    let prev = ref pis in
    for _ = 1 to depth do
      let layer =
        Array.init width (fun i ->
            Netlist.add_gate nl (Gk.Nand 2)
              [| !prev.(i); !prev.((i + 1) mod width) |])
      in
      prev := layer
    done;
    Array.iter (fun id -> Netlist.set_output nl id ~load:10.) !prev;
    nl
  in
  let cases =
    [ (largest.Profiles.name,
       fst (Generator.generate tech
              (Generator.make_profile ~name:largest.Profiles.name
                 ~path_gates:largest.Profiles.path_gates ())));
      ("spine1k",
       fst (Generator.generate tech
              (Generator.make_profile ~name:"incr1k" ~path_gates:340 ())));
      ("grid1k", make_grid ~width:100 ~depth:10);
      ("grid4k", make_grid ~width:200 ~depth:20) ]
  in
  List.iter
    (fun (name, nl) ->
      let gates = Netlist.gate_count nl in
      let full_ms = median_time_ms ~runs:5 (fun () -> ignore (Timing.analyze ~lib nl)) in
      (* single-gate resize, the flow's bread-and-butter edit: touch a
         different gate each iteration so caches cannot special-case *)
      let gate_arr = Array.of_list (Netlist.gate_ids nl) in
      let timing = Timing.analyze ~lib nl in
      let edits = 400 in
      let incr_ms_total =
        snd (time_ms (fun () ->
            for i = 1 to edits do
              let g = gate_arr.(i * 37 mod Array.length gate_arr) in
              let cur = (Netlist.node nl g).Netlist.cin in
              Netlist.set_cin nl g
                (if cur < 3. *. tech.Tech.cmin then 4. *. tech.Tech.cmin
                 else tech.Tech.cmin);
              Timing.update timing
            done))
      in
      let incr_ms = incr_ms_total /. float_of_int edits in
      assert_bit_identical ~what:(name ^ " after set_cin storm") nl timing;
      let speedup = full_ms /. incr_ms in
      (* a Flow-style mixed trace: mostly resizes, some buffer surgery;
         baseline re-analyzes from scratch after every edit *)
      let trace nl apply_retime =
        let rng = Pops_util.Rng.of_string ("trace-" ^ name) in
        let n_edits = 120 in
        for i = 1 to n_edits do
          let g = gate_arr.(Pops_util.Rng.int rng (Array.length gate_arr)) in
          if Netlist.node_exists nl g then begin
            if Pops_util.Rng.float rng 1. < 0.9 then
              Netlist.set_cin nl g (tech.Tech.cmin *. Pops_util.Rng.log_range rng 1. 30.)
            else ignore (Pops_netlist.Transform.insert_buffer nl ~after:g);
            apply_retime i
          end
        done;
        n_edits
      in
      let nl_incr = Netlist.copy nl in
      let timing_incr = Timing.analyze ~lib nl_incr in
      let n_edits = ref 0 in
      let incr_trace_ms =
        snd (time_ms (fun () ->
            n_edits := trace nl_incr (fun _ -> Timing.update timing_incr)))
      in
      assert_bit_identical ~what:(name ^ " after mixed trace") nl_incr timing_incr;
      let nl_full = Netlist.copy nl in
      let full_trace_ms =
        snd (time_ms (fun () ->
            ignore (trace nl_full (fun _ -> ignore (Timing.analyze ~lib nl_full)))))
      in
      let trace_speedup = full_trace_ms /. incr_trace_ms in
      record_bench ~kernel:"sta_full_analyze" ~circuit:name ~gates (full_ms *. 1e6);
      record_bench ~kernel:"sta_incr_set_cin" ~circuit:name ~gates
        ~speedup (incr_ms *. 1e6);
      record_bench ~kernel:"sta_incr_trace" ~circuit:name ~gates
        ~speedup:trace_speedup
        (incr_trace_ms /. float_of_int !n_edits *. 1e6);
      Table.add_row t
        [ name; string_of_int gates;
          Table.cell_f ~decimals:1 (full_ms *. 1000.);
          Table.cell_f ~decimals:2 (incr_ms *. 1000.);
          Printf.sprintf "%.0fx" speedup;
          string_of_int !n_edits;
          Printf.sprintf "%.1fx" trace_speedup;
          "bit-identical" ])
    cases;
  Table.print t;
  Printf.printf
    "shape check: on realistically shaped (wide, shallow) circuits the speedup\n\
     grows with size - the cone one edit dirties stays small while from-scratch\n\
     work is linear.  The spine profiles are the adversarial case: one deep\n\
     chain, so a random edit invalidates about half the design and incremental\n\
     degenerates gracefully to ~1x, never slower than the cone it must redo.\n\
     Every incremental state was asserted bit-identical to a cold analysis.\n"

(* ----------------------------------------------------------------- *)
(* delay_kernel: the compiled path kernel — ns/op and minor-words/op  *)
(* for the allocation-free primitives and the accelerated solvers     *)
(* (BENCH_kernel.json).  Doubles as the allocation regression guard:  *)
(* the zero-allocation kernels must stay under a pinned minor-words   *)
(* budget or the experiment exits non-zero.                           *)
(* ----------------------------------------------------------------- *)

type kern_record = {
  kr_kernel : string;
  kr_circuit : string;
  kr_stages : int;
  kr_ns_per_op : float;
  kr_words_per_op : float;
}

let kern_records : kern_record list ref = ref []

let write_kernel_json () =
  match !kern_records with
  | [] -> ()
  | records ->
    let file = "BENCH_kernel.json" in
    let oc = open_out file in
    output_string oc "{\"results\": [\n";
    let records = List.rev records in
    List.iteri
      (fun i r ->
        Printf.fprintf oc
          "  {\"kernel\": %S, \"circuit\": %S, \"stages\": %d, \
           \"ns_per_op\": %.6g, \"minor_words_per_op\": %.6g}%s\n"
          r.kr_kernel r.kr_circuit r.kr_stages r.kr_ns_per_op r.kr_words_per_op
          (if i = List.length records - 1 then "" else ","))
      records;
    output_string oc "]}\n";
    close_out oc;
    Printf.printf "wrote %s (%d records)\n%!" file (List.length records)

let kernel_bench () =
  (* the budget covers the probe's own accounting (storing a returned
     boxed float costs 2 words); the kernels themselves allocate 0 *)
  let alloc_budget = 8. in
  let failures = ref [] in
  let t = Table.create
      ~title:"delay_kernel - compiled path kernel (ns/op, minor words/op)"
      [ ("kernel", Table.Left); ("circuit", Table.Left); ("stages", Table.Right);
        ("ns/op", Table.Right); ("words/op", Table.Right); ("budget", Table.Left) ]
  in
  let bench ~iters ~kernel ~circuit ~stages ?budget f =
    ignore (f ());
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let dw = Gc.minor_words () -. w0 in
    let ns = dt /. float_of_int iters *. 1e9 in
    let words = dw /. float_of_int iters in
    let budget_cell =
      match budget with
      | None -> "-"
      | Some b when words <= b -> Printf.sprintf "<= %.0f ok" b
      | Some b ->
        failures :=
          Printf.sprintf "%s/%s: %.1f minor words/op exceeds budget %.0f"
            kernel circuit words b
          :: !failures;
        Printf.sprintf "EXCEEDED (%.0f)" b
    in
    kern_records :=
      { kr_kernel = kernel; kr_circuit = circuit; kr_stages = stages;
        kr_ns_per_op = ns; kr_words_per_op = words }
      :: !kern_records;
    Table.add_row t
      [ kernel; circuit; string_of_int stages;
        Table.cell_f ~decimals:1 ns; Table.cell_f ~decimals:1 words; budget_cell ]
  in
  let circuits = if !smoke then [ "fpd" ] else [ "fpd"; "c880"; "Adder16" ] in
  List.iter
    (fun name ->
      let p = Option.get (Profiles.find name) in
      let path = extracted_path p in
      let n = Path.length path in
      (* an interior sizing: away from the clamp bounds so every term of
         the closed form is exercised *)
      let x = Path.min_sizing path in
      Array.iteri (fun i v -> if i > 0 then x.(i) <- v *. 2.5) x;
      let g = Array.make n 0. in
      let sc = Path.scratch () in
      let hot = if !smoke then 2000 else 20000 in
      bench ~iters:hot ~kernel:"delay_worst" ~circuit:name ~stages:n
        ~budget:alloc_budget (fun () -> Path.delay_worst path x);
      bench ~iters:hot ~kernel:"delay_both" ~circuit:name ~stages:n
        ~budget:alloc_budget (fun () -> Path.delay_both path sc x);
      bench ~iters:hot ~kernel:"gradient_into" ~circuit:name ~stages:n
        ~budget:alloc_budget (fun () -> Path.gradient_into path x g);
      bench ~iters:(if !smoke then 5 else 50) ~kernel:"sensitivity_solve"
        ~circuit:name ~stages:n (fun () -> Sens.solve path);
      let b = bounds_of p in
      let tc = 1.2 *. b.Bounds.tmin in
      bench ~iters:(if !smoke then 1 else 3) ~kernel:"bisect_for_beta"
        ~circuit:name ~stages:n (fun () ->
          Sens.bisect_for_beta ~beta:0.5 path ~tc))
    circuits;
  Table.print t;
  write_kernel_json ();
  Printf.printf
    "shape check: the fused kernels (delay_worst, delay_both, gradient_into)\n\
     stay within the %g minor-words/op accounting budget - i.e. they allocate\n\
     nothing; solver cost is dominated by sweep count (see solve_stats).\n"
    alloc_budget;
  match !failures with
  | [] -> ()
  | fs ->
    List.iter (Printf.eprintf "allocation regression: %s\n") fs;
    Printf.eprintf "delay_kernel: allocation budget exceeded - failing the run\n";
    exit 1

(* ----------------------------------------------------------------- *)
(* parallel: domain-pool fan-out — speedup and determinism            *)
(* (BENCH_parallel.json).  Each kernel runs at 1, 2, 4 and N domains  *)
(* (N = recommended_domain_count); the result fingerprint must be     *)
(* bit-identical across all counts or the experiment aborts.          *)
(* ----------------------------------------------------------------- *)

type par_record = {
  pr_kernel : string;
  pr_circuit : string;
  pr_domains : int;
  pr_ns_per_op : float;
  pr_speedup : float option;
      (* [None] when the row is unmeasurable: no speedup claim is
         recorded at all rather than a misleading number *)
  pr_unmeasurable : bool;
      (* more domains than the host has cores: the run measures
         scheduling overhead, not scaling — on a single-core host every
         multi-domain row is unmeasurable and carries no speedup *)
}

let par_records : par_record list ref = ref []

let write_parallel_json () =
  match !par_records with
  | [] -> ()
  | records ->
    let file = "BENCH_parallel.json" in
    let oc = open_out file in
    Printf.fprintf oc "{\"host_cores\": %d, \"results\": [\n"
      (Domain.recommended_domain_count ());
    let records = List.rev records in
    List.iteri
      (fun i r ->
        Printf.fprintf oc
          "  {\"kernel\": %S, \"circuit\": %S, \"domains\": %d, \
           \"ns_per_op\": %.6g%s, \"unmeasurable\": %b}%s\n"
          r.pr_kernel r.pr_circuit r.pr_domains r.pr_ns_per_op
          (match r.pr_speedup with
          | Some s -> Printf.sprintf ", \"speedup\": %.6g" s
          | None -> "")
          r.pr_unmeasurable
          (if i = List.length records - 1 then "" else ","))
      records;
    output_string oc "]}\n";
    close_out oc;
    Printf.printf "wrote %s (%d records)\n%!" file (List.length records)

let parallel_bench () =
  let host = Domain.recommended_domain_count () in
  Printf.printf "host_cores = %d\n" host;
  if host = 1 then
    Printf.printf
      "NOTE: single-core host - parallel speedup cannot be measured here, so\n\
       every multi-domain row is flagged unmeasurable and records no speedup\n\
       claim; determinism (bit-identical fingerprints) is the meaningful\n\
       check on this host.\n"
  else if host < 4 then
    Printf.printf
      "NOTE: only %d cores - domain counts above that are flagged as\n\
       unmeasurable and record no speedup claim.\n"
      host;
  let counts = List.sort_uniq compare [ 1; 2; 4; host ] in
  let t = Table.create
      ~title:(Printf.sprintf
                "parallel - domain-pool fan-out (host reports %d core%s)"
                host (if host = 1 then "" else "s"))
      [ ("kernel", Table.Left); ("circuit", Table.Left);
        ("domains", Table.Right); ("time (ms)", Table.Right);
        ("speedup", Table.Right); ("results", Table.Left) ]
  in
  (* run [f] at every domain count: the 1-domain run sets the reference
     fingerprint and time; every other count must reproduce the
     fingerprint exactly (the pool's ordered-reduction contract) *)
  let sweep ~kernel ~circuit ~runs ~fingerprint f =
    let reference = ref None in
    List.iter
      (fun d ->
        Pops_util.Pool.set_default_size d;
        let fp = fingerprint (f ()) in
        let ms = median_time_ms ~runs f in
        let unmeasurable = d > host in
        let speedup =
          match !reference with
          | None ->
            reference := Some (fp, ms);
            Some 1.0
          | Some (fp0, ms0) ->
            if fp <> fp0 then
              failwith
                (Printf.sprintf "parallel: %s/%s diverges at %d domains"
                   kernel circuit d);
            if unmeasurable then None else Some (ms0 /. ms)
        in
        par_records :=
          { pr_kernel = kernel; pr_circuit = circuit; pr_domains = d;
            pr_ns_per_op = ms *. 1e6; pr_speedup = speedup;
            pr_unmeasurable = unmeasurable }
          :: !par_records;
        Table.add_row t
          [ kernel; circuit; string_of_int d;
            Table.cell_f ~decimals:2 ms;
            (match speedup with
            | Some s -> Printf.sprintf "%.2fx" s
            | None -> "unmeasurable");
            "bit-identical" ])
      counts
  in
  (* kernel 1: Flow rounds — K worst paths run the protocol concurrently
     against round-start snapshots (Flow.optimize phase 2) *)
  let flow_circuit = if !smoke then "fpd" else "c880" in
  let flow_profile = Option.get (Profiles.find flow_circuit) in
  let flow_base = fst (Profiles.circuit tech flow_profile) in
  let flow_tc =
    0.8 *. Timing.critical_delay (Timing.analyze ~lib (Netlist.copy flow_base))
  in
  let flow_fingerprint (r : Pops_flow.Flow.report) =
    Printf.sprintf "%s|%h|%h|%d|%d|%d"
      (match r.Pops_flow.Flow.outcome with
      | Pops_flow.Flow.Met -> "met"
      | Pops_flow.Flow.No_progress -> "no-progress"
      | Pops_flow.Flow.Budget_exhausted -> "budget")
      r.Pops_flow.Flow.final_delay r.Pops_flow.Flow.final_area
      r.Pops_flow.Flow.buffers_added r.Pops_flow.Flow.rewrites
      (List.length r.Pops_flow.Flow.iterations)
  in
  sweep ~kernel:"flow_rounds" ~circuit:flow_circuit
    ~runs:(if !smoke then 1 else 3) ~fingerprint:flow_fingerprint
    (fun () ->
      Pops_flow.Flow.optimize
        ~max_rounds:(if !smoke then 3 else 12)
        ~k_paths:4 ~lib ~tc:flow_tc (Netlist.copy flow_base));
  (* kernel 2: protocol candidates — sizing / buffering / restructuring
     evaluated concurrently per path (Protocol.run) *)
  let protocol_suite =
    List.filter_map Profiles.find
      (if !smoke then [ "fpd"; "c432"; "c880" ]
       else [ "c432"; "c880"; "c1355"; "c1908" ])
  in
  let protocol_fingerprint reports =
    String.concat ";"
      (List.map
         (fun (r : Protocol.report) ->
           Printf.sprintf "%s|%h|%h"
             (Protocol.strategy_to_string r.Protocol.strategy)
             r.Protocol.delay r.Protocol.area)
         reports)
  in
  sweep ~kernel:"protocol_candidates" ~circuit:"path-suite"
    ~runs:(if !smoke then 1 else 3) ~fingerprint:protocol_fingerprint
    (fun () ->
      List.map
        (fun (p : Profiles.t) ->
          let path = extracted_path p in
          let b = bounds_of p in
          Protocol.run ~lib ~tc:(1.1 *. b.Bounds.tmin) path)
        protocol_suite);
  (* kernel 3: AMPS restarts — split-seeded random restarts reduced in
     restart order (Random_search.minimum_delay) *)
  let amps_profile =
    Option.get (Profiles.find (if !smoke then "c432" else "c1908"))
  in
  let amps_path = extracted_path amps_profile in
  let amps_restarts = if !smoke then 4 else 8 in
  let amps_fingerprint (r : Pops_amps.Random_search.result) =
    Printf.sprintf "%h|%h|%d|%s"
      r.Pops_amps.Random_search.delay r.Pops_amps.Random_search.area
      r.Pops_amps.Random_search.evaluations
      (String.concat ","
         (Array.to_list
            (Array.map (Printf.sprintf "%h") r.Pops_amps.Random_search.sizing)))
  in
  sweep ~kernel:"amps_restarts" ~circuit:amps_profile.Profiles.name
    ~runs:(if !smoke then 1 else 3) ~fingerprint:amps_fingerprint
    (fun () ->
      Pops_amps.Random_search.minimum_delay ~restarts:amps_restarts amps_path);
  (* leave the pool at the host's natural size for later experiments *)
  Pops_util.Pool.set_default_size host;
  Table.print t;
  Printf.printf
    "shape check: identical fingerprints at every domain count (the pool's\n\
     ordered submission-index reduction); speedup approaches the core count\n\
     up to host_cores; rows with more domains than cores are unmeasurable\n\
     (scheduling overhead, not scaling) and record no speedup claim, never\n\
     changing a bit of the result either way.\n";
  write_parallel_json ()

(* ----------------------------------------------------------------- *)
(* sta_scale: the full-chip trajectory — the arena/CSR core at        *)
(* 10k/100k/1M gates (BENCH_scale.json).  Per size: the O(V+E)        *)
(* validation sweep, full CSR analyze vs the pre-refactor reference,  *)
(* incremental update under edit traffic, the arena k-worst, and a    *)
(* domain sweep of the level-parallel analyze (bit-identity checked   *)
(* at every count).  Minor-words-per-gate budgets guard the           *)
(* allocation-free inner loops: a regression fails the run.           *)
(* ----------------------------------------------------------------- *)

type scale_record = {
  sc_kernel : string;
  sc_shape : string;
  sc_gates : int;
  sc_domains : int;
  sc_ns_per_op : float;
  sc_words_per_gate : float option;
  sc_speedup : float option;
  sc_unmeasurable : bool;
}

let scale_records : scale_record list ref = ref []

let record_scale ?words_per_gate ?speedup ?(domains = 1) ?(unmeasurable = false)
    ~kernel ~shape ~gates ns_per_op =
  scale_records :=
    { sc_kernel = kernel; sc_shape = shape; sc_gates = gates;
      sc_domains = domains; sc_ns_per_op = ns_per_op;
      sc_words_per_gate = words_per_gate; sc_speedup = speedup;
      sc_unmeasurable = unmeasurable }
    :: !scale_records

let write_scale_json () =
  match !scale_records with
  | [] -> ()
  | records ->
    let file = "BENCH_scale.json" in
    let oc = open_out file in
    Printf.fprintf oc "{\"host_cores\": %d, \"smoke\": %b, \"results\": [\n"
      (Domain.recommended_domain_count ()) !smoke;
    let records = List.rev records in
    List.iteri
      (fun i r ->
        Printf.fprintf oc
          "  {\"kernel\": %S, \"shape\": %S, \"gates\": %d, \"domains\": %d, \
           \"ns_per_op\": %.6g%s%s, \"unmeasurable\": %b}%s\n"
          r.sc_kernel r.sc_shape r.sc_gates r.sc_domains r.sc_ns_per_op
          (match r.sc_words_per_gate with
          | Some w -> Printf.sprintf ", \"minor_words_per_gate\": %.6g" w
          | None -> "")
          (match r.sc_speedup with
          | Some s -> Printf.sprintf ", \"speedup\": %.6g" s
          | None -> "")
          r.sc_unmeasurable
          (if i = List.length records - 1 then "" else ","))
      records;
    output_string oc "]}\n";
    close_out oc;
    Printf.printf "wrote %s (%d records)\n%!" file (List.length records)

let sta_scale () =
  let host = Domain.recommended_domain_count () in
  Printf.printf "host_cores = %d\n%!" host;
  let sizes = if !smoke then [ 10_000 ] else [ 10_000; 100_000; 1_000_000 ] in
  (* minor words per gate, generously above current steady state (the
     analyze sweep and the arena enumeration allocate O(1) small values
     per node; the dense arrays land on the major heap).  A boxed float
     or a cons cell per node in an inner loop costs 2-3 words/gate and
     trips these immediately. *)
  let analyze_budget = 24. and k_worst_budget = 48. in
  let failures = ref [] in
  let check_budget ~kernel ~gates words budget =
    if words > budget then
      failures :=
        Printf.sprintf "%s at %d gates: %.1f minor words/gate exceeds budget %.0f"
          kernel gates words budget
        :: !failures
  in
  let t = Table.create
      ~title:"sta_scale - arena/CSR core across the size trajectory"
      [ ("kernel", Table.Left); ("gates", Table.Right); ("domains", Table.Right);
        ("ms/op", Table.Right); ("words/gate", Table.Right); ("speedup", Table.Right) ]
  in
  let row ~kernel ~gates ?(domains = 1) ?words ?speedup ?(unmeasurable = false) ns =
    Table.add_row t
      [ kernel; string_of_int gates; string_of_int domains;
        Table.cell_f ~decimals:2 (ns /. 1e6);
        (match words with Some w -> Table.cell_f ~decimals:2 w | None -> "-");
        (match (speedup, unmeasurable) with
        | _, true -> "unmeasurable"
        | Some s, _ -> Printf.sprintf "%.1fx" s
        | None, _ -> "-") ]
  in
  (* warm once outside the window, settle the GC, then time + count
     minor words.  Wall clock on a shared host is extremely noisy (the
     same op can vary several-fold run to run), so the reported time is
     the minimum over the runs — the least-perturbed execution — while
     allocation counts, which are exact, are averaged. *)
  let timed ?(runs = 1) f =
    ignore (Sys.opaque_identity (f ()));
    Gc.full_major ();
    let w0 = Gc.minor_words () in
    let best = ref infinity in
    for _ = 1 to runs do
      let t0 = Unix.gettimeofday () in
      ignore (Sys.opaque_identity (f ()));
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    let dw = (Gc.minor_words () -. w0) /. float_of_int runs in
    (!best *. 1e9, dw)
  in
  (* the ISCAS-style spine+side shape rides along at the sizes where the
     record-based reference is still affordable; the 1M leg stays
     grid-only to keep the trajectory run bounded *)
  let cases =
    List.concat_map
      (fun gates ->
        if gates <= 100_000 then
          [ (gates, Generator.Grid); (gates, Generator.Iscas) ]
        else [ (gates, Generator.Grid) ])
      sizes
  in
  List.iter
    (fun (gates, shape) ->
      let shape_name = Generator.scale_shape_name shape in
      Printf.printf "generating %s/%d...\n%!" shape_name gates;
      let nl =
        Generator.generate_scale tech ~name:(Printf.sprintf "scale%d" gates)
          ~gates ~shape
      in
      let fgates = float_of_int gates in
      let runs = if gates > 200_000 then 3 else 9 in
      (* single-sweep O(V+E) structural validation *)
      let vd_ns, _ = timed (fun () -> Netlist.validate_diags nl) in
      record_scale ~kernel:"validate_diags" ~shape:shape_name ~gates vd_ns;
      row ~kernel:"validate_diags" ~gates vd_ns;
      (* full CSR analyze, and the pre-refactor record-based reference
         where it is still affordable (<= 100k).  The two sides are
         timed in interleaved rounds — one CSR pass immediately
         followed by one reference pass — so sustained host load
         perturbs both sides of the speedup ratio alike; each side
         still reports its least-perturbed round *)
      let an_ns, an_wg, ref_ns =
        if gates <= 100_000 then begin
          ignore (Sys.opaque_identity (Timing.analyze ~lib nl));
          ignore (Sys.opaque_identity (Timing.analyze_reference ~lib nl));
          Gc.full_major ();
          let rounds = 7 in
          let best_c = ref infinity and best_r = ref infinity in
          let words = ref 0. in
          for _ = 1 to rounds do
            let w0 = Gc.minor_words () in
            let t0 = Unix.gettimeofday () in
            ignore (Sys.opaque_identity (Timing.analyze ~lib nl));
            let t1 = Unix.gettimeofday () in
            words := !words +. (Gc.minor_words () -. w0);
            let t2 = Unix.gettimeofday () in
            ignore (Sys.opaque_identity (Timing.analyze_reference ~lib nl));
            let t3 = Unix.gettimeofday () in
            if t1 -. t0 < !best_c then best_c := t1 -. t0;
            if t3 -. t2 < !best_r then best_r := t3 -. t2
          done;
          ( !best_c *. 1e9,
            !words /. float_of_int rounds /. fgates,
            Some (!best_r *. 1e9) )
        end
        else begin
          let an_ns, an_w = timed ~runs (fun () -> Timing.analyze ~lib nl) in
          (an_ns, an_w /. fgates, None)
        end
      in
      check_budget ~kernel:"sta_full_analyze" ~gates an_wg analyze_budget;
      let speedup =
        match ref_ns with
        | Some r ->
          record_scale ~kernel:"sta_full_analyze_reference" ~shape:shape_name
            ~gates r;
          row ~kernel:"sta_full_analyze_reference" ~gates r;
          Some (r /. an_ns)
        | None -> None
      in
      record_scale ~kernel:"sta_full_analyze" ~shape:shape_name ~gates
        ~words_per_gate:an_wg ?speedup an_ns;
      row ~kernel:"sta_full_analyze" ~gates ~words:an_wg ?speedup an_ns;
      (match speedup with
      | Some s ->
        Printf.printf "full analyze at %d gates: %.1fx the pre-CSR reference\n%!"
          gates s
      | None -> ());
      (* incremental update under single-gate resize traffic *)
      let timing = Timing.analyze ~lib nl in
      let gate_arr = Array.of_list (Netlist.gate_ids nl) in
      let edits = if gates > 200_000 then 50 else 200 in
      Gc.full_major ();
      let t0 = Unix.gettimeofday () in
      for i = 1 to edits do
        let g = gate_arr.(i * 9973 mod Array.length gate_arr) in
        let cur = (Netlist.node nl g).Netlist.cin in
        Netlist.set_cin nl g
          (if cur < 3. *. tech.Tech.cmin then 4. *. tech.Tech.cmin
           else tech.Tech.cmin);
        Timing.update timing
      done;
      let incr_ns =
        (Unix.gettimeofday () -. t0) /. float_of_int edits *. 1e9
      in
      record_scale ~kernel:"sta_incr_set_cin" ~shape:shape_name ~gates incr_ns;
      row ~kernel:"sta_incr_set_cin" ~gates incr_ns;
      (* arena k-worst with a persistent scratch: metric arrays, arena
         and queue are reused across calls, so steady-state minor words
         cover only the materialized winner paths *)
      let kw_scratch = Paths.make_scratch () in
      let kw_ns, kw_w =
        timed (fun () -> Paths.k_worst ~scratch:kw_scratch ~k:5 ~lib nl)
      in
      let kw_wg = kw_w /. fgates in
      check_budget ~kernel:"k_worst" ~gates kw_wg k_worst_budget;
      record_scale ~kernel:"k_worst" ~shape:shape_name ~gates
        ~words_per_gate:kw_wg kw_ns;
      row ~kernel:"k_worst" ~gates ~words:kw_wg kw_ns;
      (* level-parallel analyze across domain counts: the result must be
         bit-identical everywhere; speedup is only claimed on rows the
         host can actually measure *)
      let counts = List.sort_uniq compare [ 1; 2; 4; host ] in
      let reference = ref None in
      List.iter
        (fun d ->
          Pops_util.Pool.set_default_size d;
          let fingerprint tm =
            Printf.sprintf "%h|%d" (Timing.critical_delay tm)
              (Hashtbl.hash (Timing.critical_path tm))
          in
          let fp = fingerprint (Timing.analyze ~level_par_min:64 ~lib nl) in
          let ns, _ =
            timed ~runs (fun () -> Timing.analyze ~level_par_min:64 ~lib nl)
          in
          let unmeasurable = d > host in
          let speedup =
            match !reference with
            | None ->
              reference := Some (fp, ns);
              Some 1.0
            | Some (fp0, ns0) ->
              if fp <> fp0 then
                failwith
                  (Printf.sprintf
                     "sta_scale: parallel analyze diverges at %d domains (%d gates)"
                     d gates);
              if unmeasurable then None else Some (ns0 /. ns)
          in
          record_scale ~kernel:"sta_analyze_domains" ~shape:shape_name ~gates
            ~domains:d ?speedup ~unmeasurable ns;
          row ~kernel:"sta_analyze_domains" ~gates ~domains:d ?speedup
            ~unmeasurable ns)
        counts;
      Pops_util.Pool.set_default_size host)
    cases;
  Table.print t;
  write_scale_json ();
  Printf.printf
    "shape check: analyze cost grows linearly in gate count while minor\n\
     words/gate stay flat (the inner loops allocate nothing per node);\n\
     incremental update stays orders of magnitude under a full analyze;\n\
     the domain sweep is bit-identical at every count, with speedup\n\
     claims only on rows the host can measure.\n";
  match !failures with
  | [] -> ()
  | fs ->
    List.iter (Printf.eprintf "allocation regression: %s\n") fs;
    Printf.eprintf "sta_scale: allocation budget exceeded - failing the run\n";
    exit 1

(* ----------------------------------------------------------------- *)
(* flow_scale: the full-chip optimization loop at 10k/100k gates      *)
(* (BENCH_flow.json).  Per shape x size: end-to-end optimize wall     *)
(* time, loop and per-round cost, the analysis portion                *)
(* (Flow.analysis_ms: the directly-bracketed re-time / critical-delay *)
(* / slack-sweep / cone-selection time), allocation per gate,         *)
(* stale-decision counts, and a digest of the final netlist.  A       *)
(* parallel-pool re-run must reproduce the 1-domain result bit for    *)
(* bit.                                                               *)
(* ----------------------------------------------------------------- *)

type flow_record = {
  fl_shape : string;
  fl_gates : int;
  fl_domains : int;
  fl_rounds : int;
  fl_outcome : string;
  fl_total_ms : float;
  fl_loop_ms : float;
  fl_protocol_ms : float;
  fl_ms_per_round : float;
  fl_analysis_ms_per_round : float;
  fl_words_per_gate : float;
  fl_stale : int;
  fl_fingerprint : string;
}

let flow_records : flow_record list ref = ref []

let write_flow_json () =
  match !flow_records with
  | [] -> ()
  | records ->
    let file = "BENCH_flow.json" in
    let oc = open_out file in
    Printf.fprintf oc "{\"host_cores\": %d, \"smoke\": %b, \"results\": [\n"
      (Domain.recommended_domain_count ()) !smoke;
    let records = List.rev records in
    List.iteri
      (fun i r ->
        Printf.fprintf oc
          "  {\"shape\": %S, \"gates\": %d, \"domains\": %d, \
           \"rounds\": %d, \"outcome\": %S, \"total_ms\": %.6g, \
           \"loop_ms\": %.6g, \"protocol_ms\": %.6g, \"ms_per_round\": %.6g, \
           \"analysis_ms_per_round\": %.6g, \"minor_words_per_gate\": %.6g, \
           \"stale_decisions\": %d, \"fingerprint\": %S}%s\n"
          r.fl_shape r.fl_gates r.fl_domains r.fl_rounds r.fl_outcome
          r.fl_total_ms r.fl_loop_ms r.fl_protocol_ms r.fl_ms_per_round
          r.fl_analysis_ms_per_round r.fl_words_per_gate r.fl_stale
          r.fl_fingerprint
          (if i = List.length records - 1 then "" else ","))
      records;
    output_string oc "]}\n";
    close_out oc;
    Printf.printf "wrote %s (%d records)\n%!" file (List.length records)

(* structural digest of a netlist: kinds, Vt classes, fan-ins, sizes,
   wires and output loads over the topological order — equal digests
   mean the two final netlists are the same circuit with the same
   sizing and threshold assignment, bit for bit *)
let netlist_fingerprint t =
  let b = Buffer.create 65536 in
  List.iter
    (fun id ->
      let n = Netlist.node t id in
      Buffer.add_string b
        (Printf.sprintf "%d:%d:%d:%h:%h" id
           (match n.Netlist.kind with
           | Netlist.Primary_input -> -1
           | Netlist.Cell k -> Netlist.Csr.code_of_kind (Netlist.Cell k))
           (Pops_process.Vt.to_int n.Netlist.vt)
           n.Netlist.cin n.Netlist.wire);
      Array.iter (fun f -> Buffer.add_string b (Printf.sprintf ",%d" f)) n.Netlist.fanins;
      Buffer.add_char b ';')
    (Netlist.topological_order t);
  List.iter
    (fun (id, l) -> Buffer.add_string b (Printf.sprintf "o%d:%h" id l))
    (Netlist.outputs t);
  Digest.to_hex (Digest.string (Buffer.contents b))

let report_fingerprint (r : Pops_flow.Flow.report) =
  Printf.sprintf "%s|%h|%h|%d|%d|%d|%d"
    (Pops_flow.Flow.outcome_to_string r.Pops_flow.Flow.outcome)
    r.Pops_flow.Flow.final_delay r.Pops_flow.Flow.final_area
    r.Pops_flow.Flow.buffers_added r.Pops_flow.Flow.rewrites
    r.Pops_flow.Flow.stale_decisions
    (List.length r.Pops_flow.Flow.iterations)

let flow_scale () =
  let host = Domain.recommended_domain_count () in
  let ambient = Pops_util.Pool.default_size () in
  Printf.printf "host_cores = %d, ambient pool = %d\n%!" host ambient;
  let sizes = if !smoke then [ 10_000 ] else [ 10_000; 100_000 ] in
  let shapes = [ Generator.Grid; Generator.Iscas ] in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let t = Table.create
      ~title:"flow_scale - slack-driven optimization loop"
      [ ("shape", Table.Left); ("gates", Table.Right);
        ("domains", Table.Right); ("rounds", Table.Right);
        ("ms/round", Table.Right); ("analysis ms/round", Table.Right);
        ("words/gate", Table.Right) ]
  in
  List.iter
    (fun gates ->
      List.iter
        (fun shape ->
          let shape_name = Generator.scale_shape_name shape in
          Printf.printf "generating %s/%d...\n%!" shape_name gates;
          let nl =
            Generator.generate_scale tech
              ~name:(Printf.sprintf "flow%d" gates)
              ~gates ~shape
          in
          let tc = 0.9 *. Timing.critical_delay (Timing.analyze ~lib nl) in
          let run ~domains =
            let target = Netlist.copy nl in
            Pops_util.Pool.set_default_size domains;
            Gc.full_major ();
            let w0 = Gc.minor_words () in
            let t0 = Unix.gettimeofday () in
            let r = Pops_flow.Flow.optimize ~lib ~tc target in
            let total_ms = 1000. *. (Unix.gettimeofday () -. t0) in
            let words = Gc.minor_words () -. w0 in
            Pops_util.Pool.set_default_size ambient;
            let rounds =
              List.fold_left
                (fun acc (it : Pops_flow.Flow.iteration) ->
                  max acc it.Pops_flow.Flow.round)
                1 r.Pops_flow.Flow.iterations
            in
            let frounds = float_of_int rounds in
            let r =
              {
                fl_shape = shape_name;
                fl_gates = gates;
                fl_domains = domains;
                fl_rounds = rounds;
                fl_outcome =
                  Pops_flow.Flow.outcome_to_string r.Pops_flow.Flow.outcome;
                fl_total_ms = total_ms;
                fl_loop_ms = r.Pops_flow.Flow.loop_ms;
                fl_protocol_ms = r.Pops_flow.Flow.protocol_ms;
                fl_ms_per_round = r.Pops_flow.Flow.loop_ms /. frounds;
                fl_analysis_ms_per_round = r.Pops_flow.Flow.analysis_ms /. frounds;
                fl_words_per_gate = words /. float_of_int gates;
                fl_stale = r.Pops_flow.Flow.stale_decisions;
                fl_fingerprint =
                  netlist_fingerprint target ^ "|" ^ report_fingerprint r;
              }
            in
            flow_records := r :: !flow_records;
            Table.add_row t
              [ r.fl_shape; string_of_int r.fl_gates;
                string_of_int r.fl_domains; string_of_int r.fl_rounds;
                Table.cell_f ~decimals:2 r.fl_ms_per_round;
                Table.cell_f ~decimals:2 r.fl_analysis_ms_per_round;
                Table.cell_f ~decimals:2 r.fl_words_per_gate ];
            r
          in
          let one = run ~domains:1 in
          Printf.printf "%s/%d: %d rounds, %s, %d stale\n%!" shape_name gates
            one.fl_rounds one.fl_outcome one.fl_stale;
          (* the disjoint-cone protocol fan-out must be bit-identical at
             any pool size: re-run the flow on the ambient pool (the
             POPS_DOMAINS CI leg runs this at 4 domains) *)
          if ambient <> 1 then begin
            let par = run ~domains:ambient in
            if par.fl_fingerprint <> one.fl_fingerprint then
              fail "%s/%d: %d-domain flow diverges from the 1-domain result"
                shape_name gates ambient
          end)
        shapes)
    sizes;
  Table.print t;
  write_flow_json ();
  Printf.printf
    "shape check: every shape x size ends on the same netlist and report at\n\
     every pool size; the analysis portion of a round (re-timing, slack\n\
     sweep, selection) stays a small share of the round.\n";
  match !failures with
  | [] -> ()
  | fs ->
    List.iter (Printf.eprintf "flow_scale regression: %s\n") fs;
    Printf.eprintf "flow_scale: domain bit-identity broken - failing the run\n";
    exit 1

(* ----------------------------------------------------------------- *)
(* serve_bench: throughput and latency of the multi-tenant job engine *)
(* ----------------------------------------------------------------- *)

(* Mixed NDJSON workloads through Pops_serve.Engine: jobs/sec and
   p50/p95 per-job latency at 1/2/4/N domains, and the cold-vs-warm
   parsed-netlist cache comparison.  Cache effectiveness is asserted as
   a *ratio* on the same host (warm >= 2x cold jobs/sec on the repeated
   workload), which holds regardless of absolute machine speed; the
   domain sweep reuses the unmeasurable-flagging convention and the
   bit-identity fingerprint check (results rendered with times:false
   must not depend on the domain count). *)

module Engine = Pops_serve.Engine
module Sjob = Pops_serve.Job
module Sjson = Pops_serve.Json
module Bench_io = Pops_netlist.Bench_io

type serve_row = {
  sv_workload : string;
  sv_phase : string;  (* "cold" | "warm" | "-" *)
  sv_jobs : int;
  sv_domains : int;
  sv_jobs_per_sec : float;
  sv_p50_ms : float;
  sv_p95_ms : float;
  sv_hit_rate : float;  (* netlist-cache hits / (hits + misses) *)
  sv_speedup : float option;
  sv_unmeasurable : bool;
}

let serve_rows : serve_row list ref = ref []

let write_serve_json () =
  let oc = open_out "BENCH_serve.json" in
  let rows = List.rev !serve_rows in
  Printf.fprintf oc "{\"host_cores\": %d, \"smoke\": %b, \"results\": [\n"
    (Domain.recommended_domain_count ())
    !smoke;
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "  {\"workload\": %S, \"phase\": %S, \"jobs\": %d, \"domains\": %d, \
         \"jobs_per_sec\": %.6g, \"p50_ms\": %.6g, \"p95_ms\": %.6g, \
         \"hit_rate\": %.4f%s, \"unmeasurable\": %b}%s\n"
        r.sv_workload r.sv_phase r.sv_jobs r.sv_domains r.sv_jobs_per_sec
        r.sv_p50_ms r.sv_p95_ms r.sv_hit_rate
        (match r.sv_speedup with
        | Some s -> Printf.sprintf ", \"speedup\": %.3f" s
        | None -> "")
        r.sv_unmeasurable
        (if i = List.length rows - 1 then "" else ",");
    )
    rows;
  Printf.fprintf oc "]}\n";
  close_out oc;
  Printf.printf "wrote BENCH_serve.json (%d rows)\n%!" (List.length rows)

let serve_bench () =
  let host = Domain.recommended_domain_count () in
  Printf.printf "host_cores = %d\n%!" host;
  let mk_job ~seq ?(tenant = "default") ?(action = Sjob.Analyze) ?tc_ratio
      ?max_rounds text =
    {
      Sjob.seq;
      id = Printf.sprintf "job-%d" seq;
      tenant;
      source = Sjob.Inline text;
      action;
      tc_ps = None;
      tc_ratio;
      max_rounds;
      k_paths = None;
      vt_assign = false;
    }
  in
  (* payloads: a mid-size generated circuit (parse-dominated analyze
     jobs) and the paper profile circuits for the optimize mix *)
  let gen_gates = if !smoke then 300 else 2000 in
  let gen_text =
    let nl, _ =
      Generator.generate tech
        (Generator.make_profile ~name:"serve_gen" ~path_gates:gen_gates ())
    in
    Bench_io.to_string nl
  in
  let profile_text name =
    let nl, _ = circuit (Option.get (Profiles.find name)) in
    Bench_io.to_string nl
  in
  let fpd_text = profile_text "fpd" in
  let c432_text = profile_text "c432" in
  let n_repeat = if !smoke then 8 else 48 in
  let n_mix = if !smoke then 8 else 24 in
  let fresh_engine () =
    Engine.create
      ~config:{ Engine.default_config with Engine.times = false }
      tech
  in
  let run_all engine jobs =
    let window = (Engine.config engine).Engine.window in
    let rec take n = function
      | x :: rest when n < window ->
        let batch, rest = take (n + 1) rest in
        (x :: batch, rest)
      | rest -> ([], rest)
    in
    let rec batches = function
      | [] -> []
      | items ->
        let batch, rest = take 0 items in
        batch :: batches rest
    in
    List.concat_map (Engine.run_batch engine) (batches jobs)
  in
  let hit_rate engine =
    let counter name =
      Engine.summary_json engine
      |> Sjson.member "netlist_cache"
      |> Option.map (fun c ->
             match Option.bind (Sjson.member name c) Sjson.to_int with
             | Some n -> n
             | None -> 0)
      |> Option.value ~default:0
    in
    let h = counter "hits" and m = counter "misses" in
    if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)
  in
  let fingerprint results =
    results
    |> List.map (fun r -> Sjson.to_string (Sjob.to_json ~times:false r))
    |> String.concat "\n"
    |> Digest.string |> Digest.to_hex
  in
  let latencies results =
    Array.of_list (List.map (fun r -> r.Sjob.ms) results)
  in
  let t = Table.create ~title:"serve - job engine throughput"
      [ ("workload", Table.Left); ("phase", Table.Left);
        ("jobs", Table.Right); ("domains", Table.Right);
        ("jobs/s", Table.Right); ("p50 ms", Table.Right);
        ("p95 ms", Table.Right); ("hit rate", Table.Right);
        ("speedup", Table.Right) ]
  in
  let record ~workload ~phase ~jobs ~domains ~secs ~lat ~hits ?speedup
      ~unmeasurable () =
    let jps = float_of_int jobs /. secs in
    let p50 = Pops_util.Stats.percentile lat 50.
    and p95 = Pops_util.Stats.percentile lat 95. in
    serve_rows :=
      { sv_workload = workload; sv_phase = phase; sv_jobs = jobs;
        sv_domains = domains; sv_jobs_per_sec = jps; sv_p50_ms = p50;
        sv_p95_ms = p95; sv_hit_rate = hits; sv_speedup = speedup;
        sv_unmeasurable = unmeasurable }
      :: !serve_rows;
    Table.add_row t
      [ workload; phase; string_of_int jobs; string_of_int domains;
        Printf.sprintf "%.1f" jps; Printf.sprintf "%.2f" p50;
        Printf.sprintf "%.2f" p95; Printf.sprintf "%.0f%%" (100. *. hits);
        (match (speedup, unmeasurable) with
        | _, true -> "unmeasurable"
        | Some s, _ -> Printf.sprintf "%.2f" s
        | None, _ -> "-") ];
    jps
  in
  (* --- cold vs warm: the same set of netlists submitted twice --------- *)
  (* each job carries a distinct variant of the generated circuit (a
     comment line, so the content hash differs but the netlist does
     not); pass 1 parses+validates every job (all misses), pass 2 over
     the same texts replays every cached parse (all hits) and pays only
     copy + STA.  Run at 1 domain so the ratio is a pure cache effect. *)
  Pops_util.Pool.set_default_size 1;
  let variant_texts =
    List.init n_repeat (fun i ->
        Printf.sprintf "# variant %d\n%s" i gen_text)
  in
  let repeat_jobs base =
    List.mapi (fun i text -> mk_job ~seq:(base + i) text) variant_texts
  in
  let engine = fresh_engine () in
  let t0 = Unix.gettimeofday () in
  let cold = run_all engine (repeat_jobs 0) in
  let cold_secs = Unix.gettimeofday () -. t0 in
  let cold_hits = hit_rate engine in
  let cold_jps =
    record ~workload:"analyze_repeat" ~phase:"cold" ~jobs:n_repeat ~domains:1
      ~secs:cold_secs ~lat:(latencies cold) ~hits:cold_hits ~unmeasurable:false ()
  in
  let t0 = Unix.gettimeofday () in
  let warm = run_all engine (repeat_jobs n_repeat) in
  let warm_secs = Unix.gettimeofday () -. t0 in
  (* hit rate of the warm pass alone: cold contributed n misses, so
     recover the second pass's rate from the cumulative counters *)
  let warm_hits =
    let total = hit_rate engine in
    (total *. float_of_int (2 * n_repeat)) /. float_of_int n_repeat
  in
  let warm_jps =
    record ~workload:"analyze_repeat" ~phase:"warm" ~jobs:n_repeat ~domains:1
      ~secs:warm_secs ~lat:(latencies warm) ~hits:warm_hits ~unmeasurable:false ()
  in
  let cache_ratio = warm_jps /. cold_jps in
  Printf.printf "warm/cold jobs-per-sec ratio = %.2fx (floor 2.0x)\n%!"
    cache_ratio;
  (* a cache hit must be semantically transparent: same payload modulo
     the seq/id bookkeeping and the hit/miss verdict itself *)
  let payload rs =
    List.map
      (fun r ->
        Sjson.to_string
          (Sjob.to_json ~times:false
             { r with Sjob.seq = 0; id = "x"; cache = `None }))
      rs
  in
  if payload cold <> payload warm then begin
    Printf.eprintf
      "serve_bench: cache hit changed a result payload - failing the run\n";
    exit 1
  end;
  if cache_ratio < 2.0 then begin
    Printf.eprintf
      "serve_bench: warm cache is only %.2fx cold (floor 2.0x) - failing \
       the run\n"
      cache_ratio;
    exit 1
  end;
  (* --- domain sweep on a mixed multi-tenant workload ------------------ *)
  (* analyze + optimize jobs over three tenants; the times:false result
     stream must be bit-identical at every domain count *)
  let mix_jobs =
    List.init n_mix (fun i ->
        let tenant = Printf.sprintf "tenant-%d" (i mod 3) in
        match i mod 4 with
        | 0 -> mk_job ~seq:i ~tenant ~action:Sjob.Optimize ~tc_ratio:0.9
                 ~max_rounds:3 fpd_text
        | 1 -> mk_job ~seq:i ~tenant gen_text
        | 2 -> mk_job ~seq:i ~tenant ~action:Sjob.Optimize ~tc_ratio:0.9
                 ~max_rounds:3 c432_text
        | _ -> mk_job ~seq:i ~tenant c432_text)
  in
  let counts = List.sort_uniq compare [ 1; 2; 4; host ] in
  let reference = ref None in
  List.iter
    (fun d ->
      Pops_util.Pool.set_default_size d;
      let engine = fresh_engine () in
      let t0 = Unix.gettimeofday () in
      let results = run_all engine mix_jobs in
      let secs = Unix.gettimeofday () -. t0 in
      let fp = fingerprint results in
      let unmeasurable = d > host in
      let jps = float_of_int n_mix /. secs in
      let speedup =
        match !reference with
        | None ->
          reference := Some (fp, jps);
          Some 1.0
        | Some (fp0, jps0) ->
          if fp <> fp0 then begin
            Printf.eprintf
              "serve_bench: result stream diverges at %d domains - failing \
               the run\n"
              d;
            exit 1
          end;
          if unmeasurable then None else Some (jps /. jps0)
      in
      ignore
        (record ~workload:"optimize_mix" ~phase:"-" ~jobs:n_mix ~domains:d
           ~secs ~lat:(latencies results) ~hits:(hit_rate engine) ?speedup
           ~unmeasurable ()))
    counts;
  Pops_util.Pool.set_default_size host;
  Table.print t;
  write_serve_json ();
  Printf.printf
    "shape check: warm-cache repeated jobs clear the 2x jobs/sec floor\n\
     over cold (a host-independent ratio); the mixed-workload result\n\
     stream is bit-identical at every domain count, with speedup claims\n\
     only on rows the host can measure.\n"

(* ----------------------------------------------------------------- *)
(* Bechamel measurement of the kernels                                *)
(* ----------------------------------------------------------------- *)

(* ----------------------------------------------------------------- *)
(* vt: the post-sizing multi-Vt leakage pass (BENCH_vt.json).  Per    *)
(* profile circuit: run the flow with --vt-assign at a Tc the circuit *)
(* meets (1.25 x its initial STA delay), and record leakage saved,    *)
(* swap counts and the pass wall-clock.  Hard checks: the saving must *)
(* clear 20% on every met circuit with the final delay still at or    *)
(* under Tc, and the final netlist (sizing + Vt classes) must be      *)
(* bit-identical at 1, 2 and 4 pool domains.                          *)

type vt_record = {
  vr_circuit : string;
  vr_gates : int;
  vr_leak_before : float;
  vr_leak_after : float;
  vr_saved_pct : float;
  vr_accepted : int;
  vr_rejected : int;
  vr_rounds : int;
  vr_ms : float;
  vr_fingerprint : string;
}

let vt_bench () =
  let host = Domain.recommended_domain_count () in
  Printf.printf "host_cores = %d\n%!" host;
  let circuits =
    if !smoke then [ "fpd"; "c432" ]
    else [ "fpd"; "Adder16"; "c432"; "c880"; "c1355"; "c1908" ]
  in
  let records = ref [] in
  let t =
    Table.create ~title:"multi-Vt leakage assignment (Tc = 1.25 x initial delay)"
      [ ("circuit", Table.Left); ("gates", Table.Right);
        ("leakage (uW)", Table.Right); ("saved", Table.Right);
        ("acc/rej", Table.Right); ("rounds", Table.Right);
        ("pass (ms)", Table.Right); ("domains", Table.Left) ]
  in
  List.iter
    (fun name ->
      let p = Option.get (Profiles.find name) in
      let base = fst (Profiles.circuit tech p) in
      let d0 = Timing.critical_delay (Timing.analyze ~lib (Netlist.copy base)) in
      let tc = 1.25 *. d0 in
      let run_at d =
        Pops_util.Pool.set_default_size d;
        let nl = Netlist.copy base in
        let r = Pops_flow.Flow.optimize ~vt_assign:true ~lib ~tc nl in
        let final_delay = Timing.critical_delay (Timing.analyze ~lib nl) in
        (netlist_fingerprint nl, final_delay, r)
      in
      let fp1, final_delay, r = run_at 1 in
      List.iter
        (fun d ->
          let fp, _, _ = run_at d in
          if fp <> fp1 then
            failwith
              (Printf.sprintf "vt: %s diverges at %d domains - failing the run"
                 name d))
        [ 2; 4 ];
      Pops_util.Pool.set_default_size host;
      let v = Option.get r.Pops_flow.Flow.vt in
      let saved = pct v.Pops_flow.Vt_assign.leakage_after
          v.Pops_flow.Vt_assign.leakage_before in
      let met = r.Pops_flow.Flow.outcome = Pops_flow.Flow.Met in
      if met && final_delay > tc then
        failwith
          (Printf.sprintf "vt: %s un-met its constraint (%.1f > %.1f ps)" name
             final_delay tc);
      if met && saved < 20. then
        failwith
          (Printf.sprintf "vt: %s saved only %.1f%% leakage (floor: 20%%)" name
             saved);
      records :=
        { vr_circuit = name; vr_gates = Netlist.gate_count base;
          vr_leak_before = v.Pops_flow.Vt_assign.leakage_before;
          vr_leak_after = v.Pops_flow.Vt_assign.leakage_after;
          vr_saved_pct = saved;
          vr_accepted = v.Pops_flow.Vt_assign.accepted;
          vr_rejected = v.Pops_flow.Vt_assign.rejected;
          vr_rounds = v.Pops_flow.Vt_assign.rounds;
          vr_ms = v.Pops_flow.Vt_assign.ms; vr_fingerprint = fp1 }
        :: !records;
      Table.add_row t
        [ name; string_of_int (Netlist.gate_count base);
          Printf.sprintf "%.3f -> %.3f" v.Pops_flow.Vt_assign.leakage_before
            v.Pops_flow.Vt_assign.leakage_after;
          Printf.sprintf "%.1f%%" saved;
          Printf.sprintf "%d/%d" v.Pops_flow.Vt_assign.accepted
            v.Pops_flow.Vt_assign.rejected;
          string_of_int v.Pops_flow.Vt_assign.rounds;
          Table.cell_f ~decimals:1 v.Pops_flow.Vt_assign.ms;
          "1=2=4 bit-identical" ])
    circuits;
  Table.print t;
  Printf.printf
    "shape check: every circuit that meets Tc after sizing clears the 20%%\n\
     leakage floor with slack still non-negative; the swap order is a pure\n\
     function of the netlist, so the assignment is bit-identical at any\n\
     domain count.\n";
  let oc = open_out "BENCH_vt.json" in
  Printf.fprintf oc "{\"host_cores\": %d, \"smoke\": %b, \"results\": [\n" host
    !smoke;
  let rows = List.rev !records in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "  {\"circuit\": %S, \"gates\": %d, \"leakage_before_uw\": %.6f, \
         \"leakage_after_uw\": %.6f, \"saved_pct\": %.2f, \"accepted\": %d, \
         \"rejected\": %d, \"rounds\": %d, \"ms\": %.3f, \
         \"fingerprint\": %S}%s\n"
        r.vr_circuit r.vr_gates r.vr_leak_before r.vr_leak_after r.vr_saved_pct
        r.vr_accepted r.vr_rejected r.vr_rounds r.vr_ms r.vr_fingerprint
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "]}\n";
  close_out oc;
  Printf.printf "wrote BENCH_vt.json (%d rows)\n%!" (List.length rows)

let bechamel_kernels () =
  let open Bechamel in
  let p = path11 () in
  let small = Option.get (Profiles.find "c432") in
  let small_path = extracted_path small in
  let b = Bounds.compute small_path in
  let tc = 1.2 *. b.Bounds.tmin in
  let mk name f = Test.make ~name (Staged.stage f) in
  [
    mk "fig1/tmin-trace" (fun () -> ignore (Bounds.tmin_trace p));
    mk "fig2/tmin-solve" (fun () -> ignore (Sens.solve_worst ~a:0. small_path));
    mk "fig3/sensitivity-sample" (fun () -> ignore (Sens.solve_worst ~a:(-0.5) p));
    mk "fig4+table1/size-for-constraint" (fun () ->
        ignore (Sens.size_for_constraint small_path ~tc));
    mk "table2/flimit" (fun () ->
        (* the cache makes repeat queries O(1); measure the query path *)
        ignore (Buffers.flimit ~lib ~driver:Gk.Inv ~gate:(Gk.Nor 3) ()));
    mk "table3/global-buffers" (fun () ->
        ignore (Buffers.insert_global ~objective:`Tmin ~lib p));
    mk "fig6/tradeoff-point" (fun () -> ignore (Sens.solve_worst ~a:(-1.) p));
    mk "fig8/protocol" (fun () -> ignore (Protocol.run ~lib ~tc:(1.3 *. Bounds.tmin p) p));
    mk "table4/restructure" (fun () -> ignore (Restructure.apply ~lib p));
    mk "substrate/sta" (fun () ->
        let nl, _ = circuit small in
        ignore (Timing.analyze ~lib nl));
    mk "substrate/transient-sim" (fun () ->
        ignore (Transient.simulate_path ~steps_per_stage:300 p (Path.min_sizing p)));
  ]

let measure () =
  let open Bechamel in
  let tests = Test.make_grouped ~name:"pops" (bechamel_kernels ()) in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:None () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false
      ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let t = Table.create ~title:"Bechamel - kernel timings (monotonic clock)"
      [ ("kernel", Table.Left); ("time per run", Table.Right) ]
  in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] ->
        let cell =
          if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
          else if est > 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
          else Printf.sprintf "%.0f ns" est
        in
        record_bench ~kernel:name ~circuit:"-" ~gates:0 est;
        Table.add_row t [ name; cell ]
      | Some _ | None -> Table.add_row t [ name; "n/a" ])
    results;
  Table.print t

(* ----------------------------------------------------------------- *)

let experiments =
  [
    ("fig1", fig1); ("fig2", fig2); ("fig3", fig3); ("fig4", fig4);
    ("table1", table1); ("table2", table2); ("table3", table3);
    ("fig6", fig6); ("fig8", fig8); ("table4", table4); ("ablation", ablation);
    ("flow", flow); ("margins", margins); ("sta_incr", sta_incr);
    ("delay_kernel", kernel_bench); ("parallel", parallel_bench);
    ("sta_scale", sta_scale); ("flow_scale", flow_scale);
    ("serve", serve_bench); ("vt", vt_bench);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args = List.filter (fun a -> a <> "--") args in
  if List.mem "--smoke" args then smoke := true;
  if List.mem "--list" args then
    List.iter (fun (name, _) -> print_endline name) experiments
  else if List.mem "--measure" args then begin
    measure ();
    write_bench_json ()
  end
  else begin
    let selected =
      match List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args with
      | [] -> List.map fst experiments
      | names -> names
    in
    List.iter
      (fun name ->
        match List.assoc_opt name experiments with
        | Some f ->
          Printf.printf "\n=== %s ===\n%!" name;
          let (), ms = time_ms f in
          Printf.printf "[%s completed in %.1f s]\n%!" name (ms /. 1000.)
        | None -> Printf.eprintf "unknown experiment %s (try --list)\n" name)
      selected;
    write_bench_json ()
  end
