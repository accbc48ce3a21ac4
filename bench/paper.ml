(* The paper's evaluation (Verle et al., DATE 2005): every table and
   figure, the ablations DESIGN.md calls out, and two extensions (the
   guard-band margin argument and netlist-level timing closure).

   Absolute numbers differ from the paper (synthetic circuits, textbook
   0.25 um parameters, different host) — the *shapes* are the point; the
   paper's values are printed alongside where the paper gives them.  See
   EXPERIMENTS.md for the recorded comparison. *)

open Harness

let ns x = x /. 1000.

(* ----------------------------------------------------------------- *)
(* Fig. 1: sensitivity of the path delay to gate sizing — the Tmin    *)
(* fixed-point trajectory from the minimum-drive initial solution.    *)
(* ----------------------------------------------------------------- *)

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
    let x = (Sens.solve ~a p).Sens.sizing in
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
        if r.Sens.area > amps.Amps.area then
          fail "fig4: %s: POPS needs %.1f um at 1.2 Tmin, more than AMPS's %.1f um"
            p.Profiles.name r.Sens.area amps.Amps.area;
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
      (* sweeps of one steady-state run: the warm-up filled the bounds memo *)
      let pops =
        (time ~rounds:3
           [| (fun () ->
                let s0 = Sens.sweeps_performed () in
                ignore (Sens.size_for_constraint path ~tc);
                Sens.sweeps_performed () - s0) |]).(0)
      in
      let amps = (time ~rounds:1 [| (fun () -> Amps.size_for_constraint path ~tc) |]).(0) in
      let pops_ms = pops.ns /. 1e6 and amps_ms = amps.ns /. 1e6 in
      Table.add_row t
        [ p.Profiles.name; string_of_int p.Profiles.path_gates;
          (* two decimals: short paths size in a few hundredths of a ms *)
          Table.cell_f ~decimals:2 pops_ms;
          Table.cell_f ~decimals:1 amps_ms;
          Printf.sprintf "%.0fx" (amps_ms /. Float.max 0.01 pops_ms);
          Printf.sprintf "%d" pops.value; Printf.sprintf "%d" amps.value.Amps.evaluations;
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
    let x_buf = (Sens.solve ~frozen:[ 1 ] ~x0 p_buf).Sens.sizing in
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
            let nodes = Buffers.critical_nodes ~lib path in
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
  let fixed_point () = (Bounds.compute p_full).Bounds.tmin in
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
  Array.iter2
    (fun name (m : float timed) ->
      Table.add_row t2
        [ name; Table.cell_f ~decimals:1 m.value; Table.cell_f ~decimals:1 (m.ns /. 1e6) ])
    [| "link-equation fixed point"; "coordinate golden-section" |]
    (time ~rounds:3 [| fixed_point; numeric |]);
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
  let x_suth = Pops_baselines.Sutherland.size p_full ~tc in
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
  let guided = Buffers.insert_global ~objective:`Tmin ~lib heavy in
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
  let ex_tmin, ex_tried = exhaustive () in
  Table.add_row t4
    [ "Flimit-guided (protocol)"; Table.cell_f ~decimals:1 guided.Buffers.delay;
      string_of_int (List.length (Buffers.critical_nodes ~lib heavy)) ];
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
      let wire = Pops_baselines.Repeaters.wire_of_length len in
      let un =
        (* same 8x-minimum upstream driver as the repeated variant *)
        Pops_baselines.Repeaters.unrepeated_delay ~lib wire
          ~driver_cin:(8. *. tech.Tech.cmin) ~cload:10.
      in
      let sol = Pops_baselines.Repeaters.optimize ~lib wire ~cload:10. in
      Table.add_row t7
        [ Table.cell_f ~decimals:1 len; Table.cell_f ~decimals:0 un;
          Table.cell_f ~decimals:0 sol.Pops_baselines.Repeaters.delay;
          string_of_int sol.Pops_baselines.Repeaters.segments;
          Table.cell_f ~decimals:1 sol.Pops_baselines.Repeaters.repeater_cin ])
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
        let r = Pops_robust.Outcome.get (Flow.optimize_o ~lib ~tc nl) in
        Table.add_row t
          [ name;
            Table.cell_f ~decimals:2 (ns r.Flow.initial_delay);
            Table.cell_f ~decimals:2 (ns r.Flow.final_delay);
            (match r.Flow.outcome with
            | Flow.Met -> "met"
            | Flow.No_progress -> "no-progress"
            | Flow.Budget_exhausted -> "budget");
            string_of_int (List.length r.Flow.iterations);
            string_of_int r.Flow.buffers_added;
            Printf.sprintf "%+.1f%%"
              (100. *. (r.Flow.final_area -. r.Flow.initial_area)
               /. r.Flow.initial_area);
            (match r.Flow.equivalence with Ok () -> "PASS" | Error _ -> "FAIL") ])
    [ "fpd"; "c432"; "c499"; "c880"; "c1355"; "c1908" ];
  Table.print t
