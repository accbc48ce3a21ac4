(* Property-based correctness harness: executable invariants over every
   layer of the stack, run on random circuits.  See docs/testing.md for
   the catalogue and the seed-replay workflow.

   Default profile (dune runtest): every property at its registered case
   count, well under a minute.  Deep fuzz: pops_prop --cases 2000. *)

open Pops_check
module C = Circuit
module Rng = Pops_util.Rng
module Numerics = Pops_util.Numerics
module Pool = Pops_util.Pool
module Tech = Pops_process.Tech
module Gate_kind = Pops_cell.Gate_kind
module Cell = Pops_cell.Cell
module Library = Pops_cell.Library
module Edge = Pops_delay.Edge
module Model = Pops_delay.Model
module Path = Pops_delay.Path
module Bounds = Pops_core.Bounds
module Sens = Pops_core.Sensitivity
module Buffers = Pops_core.Buffers
module Netlist = Pops_netlist.Netlist
module Logic = Pops_netlist.Logic
module Transform = Pops_netlist.Transform
module Bench_io = Pops_netlist.Bench_io
module Generator = Pops_netlist.Generator
module Timing = Pops_sta.Timing
module Flow = Pops_flow.Flow
module Transient = Pops_spice.Transient

let require = Prop.require
let requiref = Prop.requiref
let close_to = Prop.close_to

(* ------------------------------------------------------------------ *)
(* shared generators                                                   *)
(* ------------------------------------------------------------------ *)

let spec = C.path_spec ()
let spec_factor lo hi = Gen.pair (C.path_spec ()) (Gen.float_range lo hi)

let path_of s = C.to_path s

(* a sizing strictly inside the drive box, away from the clamp kinks *)
let interior_sizing s =
  let cmin = s.C.p_tech.Tech.cmin in
  Array.of_list
    (List.map (fun m -> Numerics.clamp ~lo:2. ~hi:30. m *. cmin) s.C.mults)

(* ================================================================== *)
(* delay model (eqs. 1-3)                                              *)
(* ================================================================== *)

type mcase = {
  mc_tech : Tech.t;
  mc_kind : Gate_kind.t;
  mc_edge : Edge.t;
  mc_tau_in : float;
  mc_cin : float;
  mc_cload : float;
}

let mcase_gen =
  let print m =
    Printf.sprintf "{tech=%s; cell=%s; edge=%s; tau_in=%.4g; cin=%.4g; cload=%.4g}"
      m.mc_tech.Tech.name (Gate_kind.name m.mc_kind)
      (match m.mc_edge with Edge.Rising -> "rising" | Edge.Falling -> "falling")
      m.mc_tau_in m.mc_cin m.mc_cload
  in
  let shrink m =
    let cands = ref [] in
    if m.mc_tech.Tech.name <> C.technologies.(0).Tech.name then
      cands := { m with mc_tech = C.technologies.(0) } :: !cands;
    if not (Gate_kind.equal m.mc_kind Gate_kind.Inv) then
      cands := { m with mc_kind = Gate_kind.Inv } :: !cands;
    if m.mc_edge <> Edge.Rising then cands := { m with mc_edge = Edge.Rising } :: !cands;
    List.to_seq (List.rev !cands)
  in
  Gen.make ~shrink ~print (fun rng _ ->
      let tech = Rng.pick rng C.technologies in
      {
        mc_tech = tech;
        mc_kind = Rng.pick rng [| Gate_kind.Inv; Gate_kind.Buf; Gate_kind.Nand 2;
                                  Gate_kind.Nor 2; Gate_kind.Nand 3; Gate_kind.Nor 3;
                                  Gate_kind.Aoi21; Gate_kind.Oai21; Gate_kind.Xor2 |];
        mc_edge = (if Rng.bool rng then Edge.Rising else Edge.Falling);
        mc_tau_in = Rng.log_range rng 5. 300.;
        mc_cin = tech.Tech.cmin *. Rng.log_range rng 1. 64.;
        mc_cload = Rng.log_range rng 1. 400.;
      })

let cell_of m = Library.find (C.library m.mc_tech) m.mc_kind

let () =
  Prop.register ~name:"model.delay_monotone_load" (spec_factor 1. 4.) (fun (s, f) ->
      let x = C.sizing s in
      let d1 = Path.delay (path_of s) x in
      let d2 = Path.delay (path_of { s with C.c_out = s.C.c_out *. f }) x in
      requiref (d2 >= d1 -. (1e-9 *. d1))
        "delay decreased under a larger load: %.6g -> %.6g (load x%.3g)" d1 d2 f)

let () =
  Prop.register ~name:"model.delay_monotone_slope" (spec_factor 1. 5.) (fun (s, f) ->
      let x = C.sizing s in
      let d1 = Path.delay (path_of s) x in
      let d2 = Path.delay (path_of { s with C.input_slope = s.C.input_slope *. f }) x in
      requiref (d2 >= d1 -. (1e-9 *. d1))
        "delay decreased under a slower input: %.6g -> %.6g (slope x%.3g)" d1 d2 f)

(* eq. (1) recomputed from the raw cell coefficients, independently of
   every Model helper: the property that catches a dropped C_M term, a
   wrong threshold polarity or a broken symmetry factor. *)
let () =
  Prop.register ~name:"model.eq1_closed_form" mcase_gen (fun m ->
      let cell = cell_of m in
      let d, tau_out =
        Model.stage_delay cell ~edge_out:m.mc_edge ~tau_in:m.mc_tau_in ~cin:m.mc_cin
          ~cload:m.mc_cload
      in
      let s, cm_ratio, v_t =
        match m.mc_edge with
        | Edge.Falling ->
          (cell.Cell.s_hl, cell.Cell.cm_ratio_hl, m.mc_tech.Tech.vtn /. m.mc_tech.Tech.vdd)
        | Edge.Rising ->
          (cell.Cell.s_lh, cell.Cell.cm_ratio_lh, m.mc_tech.Tech.vtp /. m.mc_tech.Tech.vdd)
      in
      let tau_ref = s *. m.mc_tech.Tech.tau *. m.mc_cload /. m.mc_cin in
      let cm = cm_ratio *. m.mc_cin in
      let d_ref =
        (v_t *. m.mc_tau_in /. 2.)
        +. ((1. +. (2. *. cm /. (cm +. m.mc_cload))) *. tau_ref /. 2.)
      in
      close_to ~rtol:1e-12 "eq. (3) transition time" tau_ref tau_out;
      close_to ~rtol:1e-12 "eq. (1) stage delay" d_ref d)

let () =
  Prop.register ~name:"model.coupling_increases_delay" spec (fun s ->
      let x = C.sizing s in
      let on = { s with C.opts = { s.C.opts with Model.with_coupling = true } } in
      let off = { s with C.opts = { s.C.opts with Model.with_coupling = false } } in
      let d_on = Path.delay (path_of on) x and d_off = Path.delay (path_of off) x in
      requiref (d_on >= d_off -. (1e-9 *. d_off))
        "Miller coupling made the path faster: %.6g (on) < %.6g (off)" d_on d_off)

let () =
  Prop.register ~name:"model.transition_homogeneity"
    (Gen.pair mcase_gen (Gen.float_range 1. 16.))
    (fun (m, k) ->
      let cell = cell_of m in
      let t1 = Model.transition_time cell ~edge:m.mc_edge ~cin:m.mc_cin ~cload:m.mc_cload in
      let t2 =
        Model.transition_time cell ~edge:m.mc_edge ~cin:(m.mc_cin *. k)
          ~cload:(m.mc_cload *. k)
      in
      close_to ~rtol:1e-12 "tau(k*cin, k*cload) = tau(cin, cload)" t1 t2)

(* ================================================================== *)
(* bounded paths and the compiled kernel                               *)
(* ================================================================== *)

let () =
  Prop.register ~name:"path.stage_sum" spec (fun s ->
      let p = path_of s in
      let x = C.sizing s in
      let sum = Array.fold_left (fun acc (d, _) -> acc +. d) 0. (Pops_baselines.Sutherland.delay_per_stage p x) in
      close_to ~rtol:1e-9 "sum of stage delays = path delay" sum (Path.delay p x))

(* the zero-allocation compiled kernel against a hand-rolled reference
   walk built only on Model.stage_delay *)
let () =
  Prop.register ~name:"path.kernel_vs_reference" spec (fun s ->
      let p = path_of s in
      let x = Path.clamp_sizing p (C.sizing s) in
      let loads = Path.loads p x in
      let tau = ref p.Path.input_slope in
      let total = ref 0. in
      Array.iteri
        (fun i (st : Path.stage) ->
          let d, tau_out =
            Model.stage_delay ~opts:p.Path.opts st.Path.cell ~edge_out:p.Path.edges.(i)
              ~tau_in:!tau ~cin:x.(i) ~cload:loads.(i)
          in
          total := !total +. d;
          tau := tau_out)
        p.Path.stages;
      close_to ~rtol:1e-9 "compiled kernel = reference walk" !total (Path.delay p x))

let () =
  Prop.register ~name:"path.delay_both_consistent" spec (fun s ->
      let p = path_of s in
      let x = C.sizing s in
      let sc = Path.scratch () in
      Path.delay_both p sc x;
      let flipped = Path.with_input_edge p (Edge.flip p.Path.input_edge) in
      close_to ~rtol:1e-12 "scratch.own = delay" (Path.delay p x) sc.Path.own;
      close_to ~rtol:1e-12 "scratch.flip = flipped delay" (Path.delay flipped x) sc.Path.flip;
      close_to ~rtol:1e-12 "delay_worst = max of both"
        (Float.max sc.Path.own sc.Path.flip)
        (Path.delay_worst p x))

let () =
  Prop.register ~name:"path.flip_involution" spec (fun s ->
      let p = path_of s in
      let x = C.sizing s in
      let e = p.Path.input_edge in
      let p2 = Path.with_input_edge (Path.with_input_edge p (Edge.flip e)) e in
      requiref (Path.delay p x = Path.delay p2 x)
        "double polarity flip changed the delay: %.17g vs %.17g" (Path.delay p x)
        (Path.delay p2 x))

let () =
  Prop.register ~name:"path.gradient_matches_fd" spec (fun s ->
      let p = path_of s in
      let x = interior_sizing s in
      let g = Path.gradient p x in
      let g_fd = Numeric_oracle.gradient ~f:(fun x -> Path.delay p x) x in
      require (g.(0) = 0.) "gradient entry 0 must be 0 (fixed input gate)";
      Array.iteri
        (fun i gi ->
          if i > 0 && not (Numerics.close ~rtol:1e-3 ~atol:1e-5 gi g_fd.(i)) then
            Prop.failf "dT/dx(%d): analytic %.8g vs finite-difference %.8g" i gi g_fd.(i))
        g)

let () =
  Prop.register ~name:"path.clamp_idempotent" spec (fun s ->
      let p = path_of s in
      let raw = Array.map (fun v -> (v *. 100.) -. 50.) (C.sizing s) in
      let c1 = Path.clamp_sizing p raw in
      let c2 = Path.clamp_sizing p c1 in
      require (c1 = c2) "clamp_sizing is not idempotent";
      require (c1.(0) = p.Path.drive_cin) "clamp did not pin the drive stage";
      let cmin = s.C.p_tech.Tech.cmin in
      Array.iteri
        (fun i v ->
          if i > 0 && not (v >= cmin -. 1e-12 && v <= (4096. *. cmin) +. 1e-9) then
            Prop.failf "entry %d = %.6g escapes the drive box" i v)
        c1)

let () =
  Prop.register ~name:"path.area_matches_weights"
    (Gen.pair spec (Gen.float_range 0.5 8.))
    (fun (s, delta) ->
      let p = path_of s in
      let x = interior_sizing s in
      let a0 = Path.area p x in
      for i = 1 to Path.length p - 1 do
        let x' = Array.copy x in
        x'.(i) <- x'.(i) +. delta;
        close_to ~rtol:1e-6 ~atol:1e-9
          (Printf.sprintf "area is linear in cin (stage %d)" i)
          (a0 +. (Path.area_weight p i *. delta))
          (Path.area p x')
      done)

(* ================================================================== *)
(* bounds and constant-sensitivity sizing                              *)
(* ================================================================== *)

(* Bounds.tmin stops its search on the polarity weight at a 1e-5
   relative delay mismatch, so it may sit marginally above the exact
   minimax; every bracketing check carries a 1% tolerance. *)
let grid_tol = 1.01

let () =
  Prop.register ~name:"bounds.bracket" spec (fun s ->
      let p = path_of s in
      let b = Bounds.compute p in
      let d_rand = Path.delay_worst p (C.sizing s) in
      close_to ~rtol:1e-9 "tmax = worst delay at minimum drive"
        (Path.delay_worst p (Path.min_sizing p))
        b.Bounds.tmax;
      requiref (b.Bounds.tmin <= (b.Bounds.tmax *. grid_tol) +. 1e-9)
        "tmin %.6g above tmax %.6g" b.Bounds.tmin b.Bounds.tmax;
      requiref (d_rand >= (b.Bounds.tmin /. grid_tol) -. 1e-9)
        "random sizing beat tmin: %.6g < %.6g" d_rand b.Bounds.tmin;
      close_to ~rtol:1e-9 "sizing_tmin achieves tmin"
        (Path.delay_worst p b.Bounds.sizing_tmin)
        b.Bounds.tmin)

let () =
  Prop.register ~name:"bounds.stationary_at_tmin" spec (fun s ->
      let p = path_of s in
      let b = Bounds.compute p in
      requiref (Bounds.verify_stationary ~beta:b.Bounds.beta_tmin p b.Bounds.sizing_tmin)
        "link equations do not vanish at the tmin sizing (beta=%.3g)" b.Bounds.beta_tmin)

let () =
  Prop.register ~name:"sens.delay_monotone_in_a"
    (Gen.pair spec (Gen.pair (Gen.float_range 0. 5.) (Gen.float_range 0. 5.)))
    (fun (s, (u, v)) ->
      let p = path_of s in
      let a_hi = -.Float.min u v and a_lo = -.Float.max u v in
      (* the pure-polarity constant-sensitivity fixed point: its own
         delay is the monotone object (a = 0 is the delay optimum, more
         negative a trades delay for area).  The balanced solve's
         worst-polarity delay is only checked against the absolute lower bound:
         on skewed corners the beta = 0.5 weighting makes it wiggle. *)
      let d_at a = Path.delay p (Sens.solve ~a ~beta:1. ~tol:1e-6 p).Sens.sizing in
      let d_hi = d_at a_hi and d_lo = d_at a_lo in
      requiref (d_lo >= d_hi -. (1e-3 *. d_hi) -. 0.05)
        "delay(a=%.4g) = %.6g < delay(a=%.4g) = %.6g: not monotone" a_lo d_lo a_hi d_hi;
      let worst = Path.delay_worst p (Sens.solve ~a:a_lo p).Sens.sizing in
      requiref (worst >= (Bounds.tmin p /. grid_tol) -. 1e-9)
        "balanced solve at a = %.4g beat the path lower bound tmin = %.6g" a_lo
        (Bounds.tmin p))

let () =
  Prop.register ~name:"sens.area_monotone_in_a"
    (Gen.pair spec (Gen.pair (Gen.float_range 0. 5.) (Gen.float_range 0. 5.)))
    (fun (s, (u, v)) ->
      let p = path_of s in
      let a_hi = -.Float.min u v and a_lo = -.Float.max u v in
      let area_of a = Path.area p (Sens.solve ~a p).Sens.sizing in
      let ar_hi = area_of a_hi and ar_lo = area_of a_lo in
      requiref (ar_lo <= ar_hi +. (1e-4 *. ar_hi) +. 0.01)
        "area(a=%.4g) = %.6g > area(a=%.4g) = %.6g: not monotone" a_lo ar_lo a_hi ar_hi)

let () =
  Prop.register ~name:"sens.accel_matches_plain"
    (Gen.pair spec (Gen.float_range 0. 3.))
    (fun (s, mag) ->
      let p = path_of s in
      let a = -.mag in
      let x_acc = (Sens.solve ~accel:true ~a p).Sens.sizing in
      let x_plain = (Sens.solve ~accel:false ~a p).Sens.sizing in
      close_to ~rtol:1e-3 ~atol:1e-6 "accelerated vs plain fixed point (delay)"
        (Path.delay_avg p x_plain) (Path.delay_avg p x_acc))

(* the Newton rung's objective gradient as two gradient passes form it:
   the oracle of [Path.gradient_hessian_into]'s gradient *)
let objective_gradient p ~w_own ~w_flip ~a x =
  let n = Path.length p in
  let g = Array.make n 0. and gf = Array.make n 0. in
  let flip = Path.with_input_edge p (Edge.flip p.Path.input_edge) in
  if w_flip = 0. then Path.gradient_into p x g
  else if w_own = 0. then Path.gradient_into flip x g
  else begin
    Path.gradient_into p x g;
    Path.gradient_into flip x gf;
    for j = 1 to n - 1 do
      g.(j) <- (w_own *. g.(j)) +. (w_flip *. gf.(j))
    done
  end;
  if a <> 0. then
    for j = 1 to n - 1 do
      g.(j) <- g.(j) -. (a *. Path.area_weight p j)
    done;
  g

(* The fused pass on both input edges of a random path, at beta in
   {0, 1/2, 1, random} and a random a <= 0 (the spec draws the slope and
   coupling terms on or off): its gradient is the two-pass one bit for
   bit, and its diagonal and super-diagonal are central differences of
   that gradient (step 1e-5 relative) to 1e-6 relative. *)
let () =
  let beta =
    Gen.pair (Gen.pick ~print:string_of_float [| 0.; 0.5; 1.; Float.nan |])
      (Gen.float_range 0.01 0.99)
  in
  Prop.register ~name:"sens.hessian_matches_differences"
    (Gen.triple spec beta (Gen.float_range 0. 3.))
    (fun (s, (pick, r), mag) ->
      let beta = if Float.is_nan pick then r else pick in
      let w_own = beta and w_flip = 1. -. beta and a = -.mag in
      let p0 = path_of s in
      let x = interior_sizing s in
      let n = Path.length p0 in
      let fused p x =
        let g = Array.make n 0. and hd = Array.make n 0. and ho = Array.make n 0. in
        Path.gradient_hessian_into p ~w_own ~w_flip ~a x g hd ho;
        (g, hd, ho)
      in
      List.iter
        (fun p ->
          let g, hd, ho = fused p x in
          let g2 = objective_gradient p ~w_own ~w_flip ~a x in
          Array.iteri
            (fun j v ->
              if Int64.bits_of_float v <> Int64.bits_of_float g2.(j) then
                Prop.failf "g(%d): fused %h, two-pass %h" j v g2.(j))
            g;
          require (ho.(n - 1) = 0.) "super-diagonal past the last stage";
          for j = 1 to n - 1 do
            let h = 1e-5 *. x.(j) in
            let at d =
              let y = Array.copy x in
              y.(j) <- x.(j) +. d;
              let g, _, _ = fused p y in
              g
            in
            let gp = at h and gm = at (-.h) in
            let col i = (gp.(i) -. gm.(i)) /. (2. *. h) in
            let tol = 1e-12 *. Float.abs hd.(j) in
            close_to ~rtol:1e-6 ~atol:tol (Printf.sprintf "d2L/dx%d^2" j) (col j) hd.(j);
            if j > 1 then
              close_to ~rtol:1e-6 ~atol:tol
                (Printf.sprintf "d2L/dx%d dx%d" (j - 1) j)
                (col (j - 1)) ho.(j - 1);
            if j < n - 1 then
              close_to ~rtol:1e-6 ~atol:tol
                (Printf.sprintf "d2L/dx%d dx%d" (j + 1) j)
                (col (j + 1)) ho.(j)
          done)
        [ p0; Path.with_input_edge p0 (Edge.flip p0.Path.input_edge) ])

(* The implicit-function tangents of eq. 6 against central differences
   of tightly converged re-solves: dx/ds and the weighted delay's dT/ds at
   fixed beta, dx/dbeta and dh/dbeta at fixed a (interior beta only).
   About a quarter of the stages are frozen; a frozen stage, and one a
   drive bound holds, has tangent 0 exactly.  A case whose bound set
   changes within the difference step sits on a kink and is skipped. *)
let () =
  let beta =
    Gen.pair (Gen.pick ~print:string_of_float [| 0.; 1.; Float.nan |])
      (Gen.float_range 0.05 0.95)
  in
  Prop.register ~name:"sens.tangent_matches_differences" ~cases:60
    (Gen.triple spec beta (Gen.pair (Gen.log_float_range 1e-3 10.) (Gen.int_range 0 1023)))
    (fun (sp, (pick, r), (mag, mask)) ->
      let beta = if Float.is_nan pick then r else pick in
      let p = path_of sp in
      let n = Path.length p in
      let k = p.Path.kernel in
      let stages = List.init (n - 1) succ in
      let frozen = List.filter (fun j -> (mask lsr (2 * (j mod 5))) land 3 = 0) stages in
      let x0 = interior_sizing sp in
      (* Newton's Armijo test cannot resolve L below its rounding, so the
         sweep polishes its answer to a fixed point *)
      let solve ~a ~beta =
        let x0 = (Sens.solve ~a ~beta ~frozen ~x0 p).Sens.sizing in
        (Sens.solve ~accel:false ~a ~beta ~frozen ~x0 ~tol:1e-13 ~max_iter:100_000 p).Sens.sizing
      in
      let a = -.mag and s = log mag and d = 1e-3 in
      let x = solve ~a ~beta in
      let t = Sens.tangent ~frozen p ~a ~beta x in
      let held j = List.mem j frozen || x.(j) <= k.Path.lo.(j) || x.(j) >= k.Path.hi.(j) in
      let bounds y = List.map (fun j -> y.(j) <= k.Path.lo.(j) || y.(j) >= k.Path.hi.(j)) stages in
      let ps = Path.scratch () in
      let delays y = Path.delay_both p ps y; (ps.Path.own, ps.Path.flip) in
      let t_w y = let o, f = delays y in (beta *. o) +. ((1. -. beta) *. f) in
      let h y = let o, f = delays y in o -. f in
      let check what xp xm dx dv v =
        if bounds xp = bounds x && bounds xm = bounds x then begin
          List.iter
            (fun j ->
              if held j then requiref (dx.(j) = 0.) "%s: held stage %d moves by %g" what j dx.(j)
              else
                close_to ~rtol:1e-3 ~atol:(1e-7 *. x.(j))
                  (Printf.sprintf "dx%d/d%s" j what)
                  ((xp.(j) -. xm.(j)) /. (2. *. d))
                  dx.(j))
            stages;
          close_to ~rtol:1e-3 ~atol:(1e-9 *. t_w x) ("d/d" ^ what) ((v xp -. v xm) /. (2. *. d)) dv
        end
      in
      check "s" (solve ~a:(-.exp (s +. d)) ~beta) (solve ~a:(-.exp (s -. d)) ~beta)
        t.Sens.dx_ds t.Sens.dt_ds t_w;
      if beta > 0. && beta < 1. then
        check "beta" (solve ~a ~beta:(beta +. d)) (solve ~a ~beta:(beta -. d))
          t.Sens.dx_dbeta t.Sens.dh_dbeta h)

let () =
  (* long windows were where the sweep stalled at its cap: every solve
     must converge on the first rung to a stationary point of its own
     (beta, a) objective *)
  let draw_a = Gen.pair Gen.bool (Gen.log_float_range 1e-3 3.) in
  let beta = Gen.pick ~print:string_of_float [| 0.; 0.5; 1. |] in
  Prop.register ~name:"sens.long_path_converges"
    (Gen.triple (C.path_spec ~min_stages:24 ~max_stages:64 ()) beta draw_a)
    (fun (s, beta, (zero, mag)) ->
      let p = path_of s in
      let a = if zero then 0. else -.mag in
      let r = Sens.solve ~a ~beta p in
      requiref (r.Sens.fallback = Sens.Accelerated) "solve fell back to the %s rung"
        (Sens.rung_name r.Sens.fallback);
      List.iter
        (fun d ->
          requiref (d.Pops_robust.Diag.code <> Pops_robust.Diag.Solver_stalled)
            "stalled: %s" d.Pops_robust.Diag.message)
        r.Sens.diags;
      requiref (Bounds.verify_stationary ~a ~beta p r.Sens.sizing)
        "not stationary at a=%g beta=%g after %d sweeps" a beta
        r.Sens.stats.Sens.iterations)

let () =
  Prop.register ~name:"sens.constraint_met"
    (Gen.pair spec (Gen.float_range 0.05 1.))
    (fun (s, margin) ->
      let p = path_of s in
      let tc = Bounds.tmin p *. (1. +. margin) in
      match Sens.size_for_constraint p ~tc with
      | Error (`Infeasible tmin) ->
        Prop.failf "tc=%.6g (tmin*%.3g) declared infeasible (solver tmin %.6g)" tc
          (1. +. margin) tmin
      | Ok r ->
        requiref (r.Sens.delay <= (tc *. 1.001) +. 0.5)
          "constraint sizing misses tc: delay %.6g > tc %.6g" r.Sens.delay tc)

let () =
  Prop.register ~name:"sens.constraint_infeasible"
    (Gen.pair spec (Gen.float_range 0.1 0.5))
    (fun (s, margin) ->
      let p = path_of s in
      let tmin = Bounds.tmin p in
      let tc = tmin *. (1. -. margin) in
      match Sens.size_for_constraint p ~tc with
      | Error (`Infeasible t) ->
        requiref (t <= tmin *. grid_tol)
          "reported tmin %.6g far above grid tmin %.6g" t tmin
      | Ok r ->
        Prop.failf "tc=%.6g below tmin=%.6g accepted with delay %.6g" tc tmin r.Sens.delay)

(* the KKT sizer against the nested search it replaced
   (test/sizing_oracle.ml) *)
let () =
  Prop.register ~name:"sens.kkt_matches_oracle" ~cases:60
    (Gen.pair spec (Gen.float_range 1.0 3.0))
    (fun (s, ratio) ->
      let p = path_of s in
      let tmin, _, _ = Sizing_oracle.minimum_delay p in
      let tc = ratio *. tmin in
      match (Sens.size_for_constraint p ~tc, Sizing_oracle.size_for_constraint p ~tc) with
      | Ok r, Ok o ->
        requiref (r.Sens.delay <= tc) "delay %.6g over tc %.6g" r.Sens.delay tc;
        requiref (r.Sens.area <= o.Sens.area *. 1.002) "area %.6g over the oracle's %.6g"
          r.Sens.area o.Sens.area
      | Error _, Error _ -> ()
      | Ok _, Error _ -> Prop.failf "tc=%.6g met, the oracle calls it infeasible" tc
      | Error _, Ok _ -> Prop.failf "tc=%.6g infeasible, the oracle meets it" tc)

(* At a returned point with a finite a < 0: complementary slackness
   (every polarity with weight binds, within 1e-3 tc), stationarity of
   the weighted link equations at the solve the point came from (the
   re-solve from the returned sizing undoes the grid rounding), and every
   size off its drive bounds on the write-back grid. *)
let () =
  Prop.register ~name:"sens.kkt_conditions" ~cases:60
    (Gen.pair spec (Gen.float_range 1.0 3.0))
    (fun (s, ratio) ->
      let p = path_of s in
      let tc = ratio *. Bounds.tmin p in
      match Sens.size_for_constraint p ~tc with
      | Error _ -> Prop.failf "tc=%.6g at %.3g Tmin declared infeasible" tc ratio
      | Ok r when r.Sens.a < 0. && Float.is_finite r.Sens.a ->
        let flip = Path.with_input_edge p (Edge.flip p.Path.input_edge) in
        let own = Path.delay p r.Sens.sizing and fl = Path.delay flip r.Sens.sizing in
        let beta = r.Sens.beta in
        if beta > 0. then
          requiref (Float.abs (own -. tc) <= 1e-3 *. tc)
            "beta %.4g but the own delay %.6g does not bind tc %.6g" beta own tc;
        if beta < 1. then
          requiref (Float.abs (fl -. tc) <= 1e-3 *. tc)
            "beta %.4g but the flipped delay %.6g does not bind tc %.6g" beta fl tc;
        let x = (Sens.solve ~a:r.Sens.a ~beta ~x0:r.Sens.sizing p).Sens.sizing in
        requiref (Bounds.verify_stationary ~a:r.Sens.a ~beta p x)
          "not stationary at a=%g beta=%g" r.Sens.a beta;
        let k = p.Path.kernel in
        Array.iteri
          (fun j v ->
            if j > 0 && v > k.Path.lo.(j) && v < k.Path.hi.(j) then
              requiref (Path.grid ~round:Float.round v = v) "size %d (%h) off the grid" j v)
          r.Sens.sizing
      | Ok _ -> ())

(* Weak duality: at any multipliers (a, beta), the bound is at most the
   area of the constraint sizer's answer, up to the 1e-7 relative margin
   the buffer screen keeps.  Tc runs from Tmin - tol_ps (the sizer then
   returns the Tmin sizing) to 3 Tmin; beta is uniform, pure, Tmin's or
   the answer's, a log-uniform in [-10, -1e-5], the answer's own, or
   -infinity (the minimum-drive area). *)
type dual_case = { d_edge : float option; d_ratio : float; d_a : float; d_beta : int; d_u : float }

let dual_case_gen =
  let print c =
    Printf.sprintf "{tc=%s; a=%s; beta=%s}"
      (match c.d_edge with
      | Some u -> Printf.sprintf "tmin - %.4g tol_ps" u
      | None -> Printf.sprintf "%.4g tmin" c.d_ratio)
      (if c.d_a = 0. then "the answer's" else Printf.sprintf "%.6g" c.d_a)
      (match c.d_beta with
      | 0 -> Printf.sprintf "%.4g" c.d_u
      | 1 -> "0"
      | 2 -> "1"
      | 3 -> "tmin's"
      | _ -> "the answer's")
  in
  Gen.make ~print (fun rng _ ->
      {
        d_edge = (if Rng.int rng 3 = 0 then Some (Rng.float rng 1.) else None);
        d_ratio = Rng.range rng 1. 3.;
        d_a =
          (match Rng.int rng 10 with
          | 0 -> Float.neg_infinity
          | 1 | 2 -> 0.
          | _ -> -.Rng.log_range rng 1e-5 10.);
        d_beta = Rng.int rng 5;
        d_u = Rng.float rng 1.;
      })

let () =
  Prop.register ~name:"sens.dual_bound_below_answer" ~cases:200 (Gen.pair spec dual_case_gen)
    (fun (s, c) ->
      let p = path_of s in
      let tmin, x_tmin, beta_tmin = Sens.minimum_delay p in
      let tc =
        match c.d_edge with Some u -> tmin -. (u *. 0.01) | None -> c.d_ratio *. tmin
      in
      match Sens.size_for_constraint p ~tc with
      | Error _ -> ()
      | Ok r ->
        let a = if c.d_a = 0. then r.Sens.a else c.d_a in
        let beta =
          match c.d_beta with
          | 0 -> c.d_u
          | 1 -> 0.
          | 2 -> 1.
          | 3 -> beta_tmin
          | _ -> r.Sens.beta
        in
        let x0 = if c.d_a = 0. then r.Sens.sizing else x_tmin in
        (match Sens.dual_bound ~x0 p ~a ~beta ~tc with
        | None -> ()
        | Some lb ->
          requiref (lb <= r.Sens.area *. (1. +. 1e-7))
            "bound %.9g at a=%g beta=%.4g over the answer's area %.9g (tc=%.6g, tmin=%.6g)"
            lb a beta r.Sens.area tc tmin))

let () =
  Prop.register ~name:"bounds.tmin_matches_oracle" spec (fun s ->
      let p = path_of s in
      let tmin, _, _ = Sens.minimum_delay p in
      let tmin_o, _, _ = Sizing_oracle.minimum_delay p in
      requiref (tmin <= tmin_o +. 0.01) "tmin %.6g above the oracle's %.6g" tmin tmin_o)

let () =
  Prop.register ~name:"numerics.bisect_finds_root"
    (Gen.make
       ~print:(fun (r, d1, d2, a) -> Printf.sprintf "root=%.6g lo=-%.3g hi=+%.3g cubic=%.3g" r d1 d2 a)
       (fun rng _ ->
         ( Rng.range rng (-50.) 50.,
           Rng.log_range rng 0.1 30.,
           Rng.log_range rng 0.1 30.,
           Rng.log_range rng 0.01 10. ))
       )
    (fun (r, d1, d2, a) ->
      let f x = (x -. r) *. (a +. ((x -. r) *. (x -. r))) in
      let x = Numerics.bisect ~tol:1e-9 ~f ~lo:(r -. d1) ~hi:(r +. d2) () in
      requiref (Float.abs (x -. r) <= 1e-6)
        "bisect returned %.9g, root is %.9g" x r)

(* ================================================================== *)
(* buffer insertion and Flimit                                         *)
(* ================================================================== *)

let () =
  Prop.register ~name:"buffers.flimit_crossover"
    (Gen.pair (Gen.pick ~print:(fun t -> t.Tech.name) C.technologies)
       (Gen.pick ~print:Gate_kind.name
          [| Gate_kind.Inv; Gate_kind.Nand 2; Gate_kind.Nand 3; Gate_kind.Nor 2;
             Gate_kind.Nor 3; Gate_kind.Aoi21 |]))
    (fun (tech, gate) ->
      let lib = C.library tech in
      let driver = Gate_kind.Inv in
      let gate_cin = 4. *. tech.Tech.cmin in
      let fl = Buffers.flimit ~lib ~driver ~gate () in
      if Float.is_finite fl then begin
        let check f expect_buffered =
          let cload = f *. gate_cin in
          let direct = Buffers.delay_direct ~lib ~driver ~gate ~gate_cin ~cload in
          let buffered, _ = Buffers.delay_buffered ~lib ~driver ~gate ~gate_cin ~cload () in
          if expect_buffered then
            requiref (buffered < direct)
              "F=%.3g (1.25x Flimit %.3g): buffered %.6g not faster than direct %.6g" f fl
              buffered direct
          else
            requiref (direct <= buffered *. (1. +. 1e-9))
              "F=%.3g (0.8x Flimit %.3g): direct %.6g slower than buffered %.6g" f fl
              direct buffered
        in
        check (fl *. 1.25) true;
        check (fl *. 0.8) false
      end
      else begin
        (* buffering never wins below the search cap: direct must hold there *)
        let cload = 150. *. gate_cin in
        let direct = Buffers.delay_direct ~lib ~driver ~gate ~gate_cin ~cload in
        let buffered, _ = Buffers.delay_buffered ~lib ~driver ~gate ~gate_cin ~cload () in
        requiref (direct <= buffered *. (1. +. 1e-9))
          "Flimit=inf but buffering wins at F=150: direct %.6g > buffered %.6g" direct
          buffered
      end)

let () =
  Prop.register ~name:"buffers.insert_local_improves" spec (fun s ->
      let p = path_of s in
      let x = Path.clamp_sizing p (C.sizing s) in
      let lib = C.library s.C.p_tech in
      let r = Buffers.insert_local ~lib p x in
      let before = Path.delay_worst p x in
      requiref (r.Buffers.delay <= (before *. (1. +. 1e-9)) +. 1e-6)
        "local insertion worsened the path: %.6g -> %.6g" before r.Buffers.delay)

(* The weak-duality screen changes no decision of the greedy: the
   screened insert_global equals the unscreened one
   (test/buffers_oracle.ml) bit for bit, with Tc drawn across the
   infeasible, hard and medium domains (0.9-2.5 Tmin) and branch loads
   up to 60 fF, so most paths carry overloaded nodes.  So does the greedy
   handed the base path's constraint answer as its incumbent ([~base],
   as the protocol runs it), an [Error] answer below Tmin included. *)
let () =
  Prop.register ~name:"buffers.screen_matches_oracle" ~cases:80
    (Gen.triple spec (Gen.float_range 0.9 2.5) (Gen.float_range 1. 3.))
    (fun (s, ratio, heavier) ->
      let p = path_of { s with C.branch = s.C.branch *. heavier } in
      let lib = C.library s.C.p_tech in
      let tc = ratio *. Bounds.tmin p in
      let o = Buffers_oracle.insert_global ~objective:(`Area_at tc) ~lib p in
      let check what r =
        match Buffers_oracle.diff r o with
        | None -> ()
        | Some field ->
          Prop.failf "tc=%.6g (%.3g tmin): the %s greedy differs from the oracle in %s" tc
            ratio what field
      in
      check "screened" (Buffers.insert_global ~objective:(`Area_at tc) ~lib p);
      let base = Sens.size_for_constraint p ~tc in
      check "~base" (Buffers.insert_global ~objective:(`Area_at tc) ~base ~lib p))

(* ================================================================== *)
(* netlists, logic, transforms                                         *)
(* ================================================================== *)

let () =
  Prop.register ~name:"netlist.generated_dag_valid" C.dag_spec (fun d ->
      let nl = C.build_dag d in
      (match Netlist.validate nl with
      | Ok () -> ()
      | Error e -> Prop.failf "generated DAG invalid: %s" e);
      let order = Netlist.topological_order nl in
      requiref (List.length order = Netlist.live_count nl)
        "topological order misses nodes: %d vs %d" (List.length order)
        (Netlist.live_count nl);
      let seen = Hashtbl.create 64 in
      List.iter
        (fun id ->
          Array.iter
            (fun f ->
              if not (Hashtbl.mem seen f) then
                Prop.failf "node %d appears before its fan-in %d" id f)
            (Netlist.node nl id).Netlist.fanins;
          Hashtbl.add seen id ())
        order;
      require (Netlist.outputs nl <> []) "generated DAG has no primary output")

let () =
  Prop.register ~name:"netlist.levels_consistent" C.dag_spec (fun d ->
      let nl = C.build_dag d in
      let ids = Netlist.inputs nl @ Netlist.gate_ids nl in
      List.iter
        (fun id ->
          let n = Netlist.node nl id in
          match n.Netlist.kind with
          | Netlist.Primary_input ->
            requiref (Netlist.level nl id = 0) "input %d at level %d" id (Netlist.level nl id)
          | Netlist.Cell _ ->
            let expect =
              1 + Array.fold_left (fun m f -> max m (Netlist.level nl f)) 0 n.Netlist.fanins
            in
            requiref (Netlist.level nl id = expect)
              "node %d: level %d, fan-ins say %d" id (Netlist.level nl id) expect)
        ids;
      let depth = Netlist.depth nl in
      requiref (depth = List.fold_left (fun m id -> max m (Netlist.level nl id)) 0 ids)
        "depth %d is not the max level" depth;
      for l = 0 to depth + 1 do
        let direct = List.length (List.filter (fun id -> Netlist.level nl id >= l) ids) in
        requiref (Netlist.count_level_ge nl l = direct)
          "count_level_ge %d = %d, direct count %d" l (Netlist.count_level_ge nl l) direct
      done)

(* every array of a CSR snapshot over the part a consumer reads, floats
   by their bits (dead ids hold nan): the derived order's arrays carry
   capacity past it *)
let csr_arrays c =
  let module K = Netlist.Csr in
  let bits a = Array.map Int64.bits_of_float a in
  let bound = K.bound c in
  ( [ Array.sub (K.node_of c) 0 (K.length c); Array.sub (K.pos c) 0 bound;
      Array.sub (K.level_off c) 0 (K.depth c + 2); K.kind_code c; K.vt_code c;
      K.fanin_off c; K.fanin c; Array.sub (K.fanout_off c) 0 (bound + 1);
      Array.sub (K.fanout c) 0 (K.fanout_off c).(bound) ],
    [ bits (K.cin c); bits (K.load c) ],
    (bound, K.length c, K.depth c) )

(* a netlist restored into a fresh one carries no derived order, so its
   first [csr] is a cold build *)
let cold nl =
  let s = Netlist.create (Netlist.tech nl) in
  Netlist.restore s ~from:nl;
  ignore (Netlist.csr s);
  s

(* what the queries read: liveness below the id bound, and per live id
   its node view, load (by its bits), output flag and level *)
let query_state nl =
  List.init (Netlist.id_bound nl) (fun id ->
      if not (Netlist.node_exists nl id) then None
      else
        Some
          ( Netlist.node nl id,
            Int64.bits_of_float (Netlist.load_on nl id),
            Netlist.is_output nl id,
            Netlist.level nl id ))

(* what the resync property draws: an edit of [C.edit], or the flow's
   shield, a buffer pair taking over a subset of a gate's consumers (the
   subset a bit mask over its fan-out list) *)
type resync_edit = Edit of C.edit | Shield of int * int

let print_resync_edit = function
  | Edit e -> C.print_edit e
  | Shield (i, mask) -> Printf.sprintf "shield(%d, mask 0x%x)" i mask

let resync_edit =
  Gen.make ~print:print_resync_edit
    ~shrink:(function
      | Edit e -> Seq.map (fun e -> Edit e) (C.edit.Gen.shrink e)
      | Shield (i, mask) -> Seq.map (fun i -> Shield (i, mask)) (Gen.shrink_int ~lo:0 i))
    (fun rng size ->
      if Rng.int rng 4 = 0 then Shield (Rng.int rng 64, 1 + Rng.int rng 255)
      else Edit (C.edit.Gen.gen rng size))

let apply_resync_edit nl = function
  | Edit e -> C.apply_edit nl e
  | Shield (i, mask) -> (
    match Netlist.gate_ids nl with
    | [] -> ()
    | gates ->
      let g = List.nth gates (i mod List.length gates) in
      let only =
        List.filteri (fun k _ -> mask land (1 lsl (k mod 8)) <> 0) (Netlist.fanouts nl g)
      in
      if only <> [] then ignore (Transform.insert_buffer_for nl ~after:g ~only))

(* the snapshot derived across edits equals a cold build: each step's
   code decides what follows its edit — 0-2 nothing (so [csr] sees a
   random prefix of edits at once), 3 a check, 4 a switch to a copy
   (sharing the order, and taken before any [csr] has refreshed the
   edit's loads) and a check, 5 a restore to the start first, 6 a copy
   left behind while the source goes on (as the flow keeps its
   reference copy) and a check.  Every netlist left behind must keep its
   own snapshot intact. *)
let () =
  Prop.register ~name:"netlist.csr_resync_matches_rebuild"
    (Gen.pair C.dag_spec (Gen.list_sized ~min_len:1 (Gen.pair resync_edit (Gen.int_range 0 6))))
    (fun (d, steps) ->
      let nl = ref (C.build_dag d) in
      ignore (Netlist.csr !nl);
      let start = Netlist.copy !nl and left = ref [] in
      let check what nl =
        let c = cold nl in
        if csr_arrays (Netlist.csr nl) <> csr_arrays (Netlist.csr c) then
          Prop.failf "%s: snapshot differs from a cold build" what;
        if query_state nl <> query_state c then
          Prop.failf "%s: queries differ from a cold build" what
      in
      List.iteri
        (fun i (e, code) ->
          if code = 5 then Netlist.restore !nl ~from:start;
          apply_resync_edit !nl e;
          let what = Printf.sprintf "step %d (%s)" i (print_resync_edit e) in
          if code = 4 then begin
            left := !nl :: !left;
            nl := Netlist.copy !nl
          end;
          if code = 6 then left := Netlist.copy !nl :: !left;
          if code >= 3 then check what !nl)
        steps;
      check "last step" !nl;
      List.iter (check "a netlist left for its copy") !left)

let () =
  Prop.register ~name:"logic.word_matches_scalar"
    (Gen.make
       ~print:(fun (k, ws) ->
         Printf.sprintf "%s over [%s]" (Gate_kind.name k)
           (String.concat "; " (List.map (Printf.sprintf "0x%Lx") (Array.to_list ws))))
       (fun rng _ ->
         let k = Rng.pick rng (Array.of_list Gate_kind.all) in
         (k, Array.init (Gate_kind.arity k) (fun _ -> Rng.int64 rng)))
       )
    (fun (kind, words) ->
      let packed = Logic.word_of_kind kind words in
      for j = 0 to 63 do
        let bit w = Int64.logand (Int64.shift_right_logical w j) 1L = 1L in
        let scalar = Gate_kind.eval kind (Array.map bit words) in
        if bit packed <> scalar then
          Prop.failf "%s lane %d: packed %b, scalar %b" (Gate_kind.name kind) j
            (bit packed) scalar
      done)

(* a dag edited by the transforms — De Morgan, buffer insertion and
   inverter-pair cleanup, which deletes nodes — and widened by gates
   that have no CSR kind code ([Nand n]/[Nor n] with n = 1, 5, 7) *)
let edited_dag (d, edits) =
  let nl = C.build_dag d in
  List.iter
    (fun e ->
      let gates = Array.of_list (Netlist.gate_ids nl) in
      let pick = gates.((e / 4) mod Array.length gates) in
      match e mod 4 with
      | 0 -> ignore (Transform.de_morgan nl pick)
      | 1 -> ignore (Transform.insert_buffer nl ~after:pick)
      | 2 -> ignore (C.cleanup_inverter_pairs nl)
      | _ ->
        let nodes = Array.of_list (Netlist.inputs nl @ Netlist.gate_ids nl) in
        let n = [| 1; 5; 7 |].((e / 4) mod 3) in
        let fanins = Array.init n (fun i -> nodes.(((e / 12) + (7 * i)) mod Array.length nodes)) in
        let kind = if e / 12 mod 2 = 0 then Gate_kind.Nand n else Gate_kind.Nor n in
        Netlist.set_output nl (Netlist.add_gate nl kind fanins) ~load:1.)
    edits;
  nl

let () =
  Prop.register ~name:"logic.csr_matches_oracle"
    (Gen.pair
       (Gen.pair C.dag_spec (Gen.list_sized (Gen.int_range 0 4095)))
       (Gen.pair Gen.int64 (Gen.int_range 0 1023)))
    (fun (spec, (seed, pick)) ->
      let nl = edited_dag spec in
      (match Netlist.validate nl with
      | Ok () -> ()
      | Error e -> Prop.failf "edited netlist invalid: %s" e);
      (* packed outputs, lane by lane *)
      let rng = Rng.create seed in
      let words = Array.init (Netlist.input_count nl) (fun _ -> Rng.int64 rng) in
      let packed = Logic.eval_packed nl words in
      for j = 0 to 63 do
        let vec = Array.map (fun w -> Int64.logand (Int64.shift_right_logical w j) 1L = 1L) words in
        List.iter2
          (fun (id, w) (id', b) ->
            require (id = id') "output order mismatch";
            if (Int64.logand (Int64.shift_right_logical w j) 1L = 1L) <> b then
              Prop.failf "output %d lane %d: sweep and oracle disagree" id j)
          packed (Logic_oracle.eval nl vec)
      done;
      (* one node's cone table, on every assignment of its support *)
      let live = Array.of_list (Netlist.gate_ids nl) in
      let id = live.(pick mod Array.length live) in
      let support = Logic.cone_support nl id in
      let k = List.length support in
      if k <= 10 then begin
        let _, table = Logic.cone_function nl id in
        let inputs = Array.of_list (Netlist.inputs nl) in
        for pat = 0 to (1 lsl k) - 1 do
          let vec =
            Array.map
              (fun pid ->
                match List.find_index (fun s -> s = pid) support with
                | Some i -> pat land (1 lsl i) <> 0
                | None -> false)
              inputs
          in
          let tabled =
            Int64.logand (Int64.shift_right_logical table.(pat lsr 6) (pat land 63)) 1L = 1L
          in
          if tabled <> Logic_oracle.eval_node nl vec id then
            Prop.failf "node %d assignment %d: cone table %b disagrees with the oracle" id pat
              tabled
        done
      end;
      (* probabilities, bit for bit on every live node *)
      let probs = Logic.signal_probabilities nl () in
      Hashtbl.iter
        (fun id p ->
          if Int64.bits_of_float probs.(id) <> Int64.bits_of_float p then
            Prop.failf "node %d: probability %h, oracle %h" id probs.(id) p)
        (Logic_oracle.signal_probabilities nl))

let () =
  Prop.register ~name:"logic.cone_table_matches_eval"
    (Gen.pair C.dag_spec (Gen.int_range 0 1023))
    (fun (d, pick) ->
      let nl = C.build_dag d in
      let gates = Netlist.gate_ids nl in
      let id = List.nth gates (pick mod List.length gates) in
      let support = Logic.cone_support nl id in
      let k = List.length support in
      if k <= Logic.cone_limit && k <= 10 then begin
        let _, table = Logic.cone_function nl id in
        let inputs = Netlist.inputs nl in
        let pos = Hashtbl.create 16 in
        List.iteri (fun i pid -> Hashtbl.replace pos pid i) inputs;
        for pat = 0 to (1 lsl k) - 1 do
          let vec = Array.make (List.length inputs) false in
          List.iteri
            (fun i pid -> vec.(Hashtbl.find pos pid) <- pat land (1 lsl i) <> 0)
            support;
          let direct = Logic_oracle.eval_node nl vec id in
          let tabled =
            Int64.logand (Int64.shift_right_logical table.(pat lsr 6) (pat land 63)) 1L = 1L
          in
          if direct <> tabled then
            Prop.failf "node %d assignment %d: cone table %b, direct eval %b" id pat
              tabled direct
        done
      end)

let () =
  Prop.register ~name:"logic.cone_self_equivalent"
    (Gen.pair C.dag_spec (Gen.int_range 0 1023))
    (fun (d, pick) ->
      let nl = C.build_dag d in
      let gates = Netlist.gate_ids nl in
      let id = List.nth gates (pick mod List.length gates) in
      if List.length (Logic.cone_support nl id) <= Logic.cone_limit then
        match Logic.cone_equivalent nl id (Netlist.copy nl) id with
        | Ok () -> ()
        | Error e -> Prop.failf "node %d not equivalent to its own copy: %s" id e)

let () =
  Prop.register ~name:"transform.de_morgan_preserves_logic"
    (Gen.pair C.dag_spec (Gen.int_range 0 1023))
    (fun (d, pick) ->
      let nl = C.build_dag d in
      let duals =
        List.filter
          (fun id ->
            match (Netlist.node nl id).Netlist.kind with
            | Netlist.Cell k -> Gate_kind.de_morgan_dual k <> None
            | Netlist.Primary_input -> false)
          (Netlist.gate_ids nl)
      in
      match duals with
      | [] -> ()
      | _ :: _ -> (
        let id = List.nth duals (pick mod List.length duals) in
        let b = Netlist.copy nl in
        match Transform.de_morgan b id with
        | Error e -> Prop.failf "de_morgan refused a dual-capable gate %d: %s" id e
        | Ok inv_id ->
          (match Netlist.validate b with
          | Ok () -> ()
          | Error e -> Prop.failf "netlist invalid after de_morgan: %s" e);
          (match Logic.equivalent nl b with
          | Ok () -> ()
          | Error e -> Prop.failf "de_morgan changed the circuit function: %s" e);
          if
            List.length (Logic.cone_support nl id) <= Logic.cone_limit
            && List.length (Logic.cone_support b inv_id) <= Logic.cone_limit
          then
            match Logic.cone_equivalent nl id b inv_id with
            | Ok () -> ()
            | Error e -> Prop.failf "de_morgan changed the local cone: %s" e))

(* The one-pass check against the chunked one of [Logic_oracle], on
   DAGs of up to 20 inputs (exhaustive up to 12, random vectors above),
   the second netlist edited by function-preserving edits and, when
   drawn, a gate swapped for its De Morgan dual with no inverters: the
   same verdict and, on a mismatch, the same message. *)
let () =
  Prop.register ~name:"logic.equivalent_matches_chunked"
    (Gen.triple
       (Gen.pair C.dag_spec (Gen.int_range 2 20))
       (Gen.list_sized C.edit)
       (Gen.triple Gen.bool (Gen.int_range 0 1023)
          (Gen.pick ~print:string_of_int [| 512; 64; 100; 700; 1 |])))
    (fun ((d, n_inputs), edits, (wrong, pick, vectors)) ->
      let a = C.build_dag { d with C.n_inputs } in
      let b = Netlist.copy a in
      List.iter (C.apply_edit b) edits;
      (if wrong then
         let duals =
           List.filter_map
             (fun id ->
               Option.map (fun k -> (id, k)) (Gate_kind.de_morgan_dual (Netlist.gate_kind b id)))
             (Netlist.gate_ids b)
         in
         match duals with
         | [] -> ()
         | _ :: _ ->
           let id, dual = List.nth duals (pick mod List.length duals) in
           Netlist.replace_kind b id dual);
      let show = function Ok () -> "Ok" | Error m -> "Error " ^ m in
      let got = Logic.equivalent ~vectors a b
      and want = Logic_oracle.equivalent_chunked ~vectors a b in
      if got <> want then Prop.failf "one pass: %s; chunked: %s" (show got) (show want))

let () =
  Prop.register ~name:"transform.insert_buffer_preserves_logic"
    (Gen.pair C.dag_spec (Gen.int_range 0 1023))
    (fun (d, pick) ->
      let nl = C.build_dag d in
      let gates = Netlist.gate_ids nl in
      let id = List.nth gates (pick mod List.length gates) in
      let b = Netlist.copy nl in
      ignore (Transform.insert_buffer b ~after:id);
      (match Netlist.validate b with
      | Ok () -> ()
      | Error e -> Prop.failf "netlist invalid after insert_buffer: %s" e);
      match Logic.equivalent nl b with
      | Ok () -> ()
      | Error e -> Prop.failf "insert_buffer changed the circuit function: %s" e)

let () =
  Prop.register ~name:"transform.cleanup_reaches_fixpoint"
    (Gen.pair C.dag_spec (Gen.list_sized ~min_len:1 (Gen.int_range 0 1023)))
    (fun (d, picks) ->
      let nl = C.build_dag d in
      let b = Netlist.copy nl in
      List.iter
        (fun pick ->
          let gates = Netlist.gate_ids b in
          ignore (Transform.insert_buffer b ~after:(List.nth gates (pick mod List.length gates))))
        picks;
      let rounds = ref 0 in
      while C.cleanup_inverter_pairs b > 0 && !rounds < 20 do
        incr rounds
      done;
      requiref (!rounds < 20) "cleanup_inverter_pairs did not reach a fixpoint in 20 rounds";
      require (C.cleanup_inverter_pairs b = 0) "fixpoint not stable";
      (match Netlist.validate b with
      | Ok () -> ()
      | Error e -> Prop.failf "netlist invalid after cleanup: %s" e);
      match Logic.equivalent nl b with
      | Ok () -> ()
      | Error e -> Prop.failf "cleanup changed the circuit function: %s" e)

(* ================================================================== *)
(* bench-file I/O                                                      *)
(* ================================================================== *)

let () =
  Prop.register ~name:"bench.roundtrip" C.dag_spec (fun d ->
      let nl = C.build_dag d in
      let text = Bench_io.to_string nl in
      match Bench_io.parse_diag (Netlist.tech nl) text with
      | Error d ->
        Prop.failf "netlist failed to parse back: %s" (Pops_robust.Diag.one_line d)
      | Ok (b, _) ->
        (match Netlist.validate b with
        | Ok () -> ()
        | Error e -> Prop.failf "round-tripped netlist invalid: %s" e);
        requiref (Netlist.gate_count b = Netlist.gate_count nl)
          "gate count changed in round trip: %d -> %d" (Netlist.gate_count nl)
          (Netlist.gate_count b);
        requiref (Netlist.depth b = Netlist.depth nl)
          "depth changed in round trip: %d -> %d" (Netlist.depth nl) (Netlist.depth b);
        (match Logic.equivalent nl b with
        | Ok () -> ()
        | Error e -> Prop.failf "round trip changed the circuit function: %s" e);
        (* sizing annotations survive to the printed precision (0.001 fF) *)
        let cins t = List.sort compare (List.map (fun id -> (Netlist.node t id).Netlist.cin) (Netlist.gate_ids t)) in
        List.iter2
          (fun a b ->
            if Float.abs (a -. b) > 2e-3 then
              Prop.failf "gate size lost in round trip: %.6g vs %.6g" a b)
          (cins nl) (cins b))

let malformed_benches =
  [|
    "INPUT(a)\nz = FROB(a)\nOUTPUT(z)\n";
    "INPUT(a)\nz = NOT(q)\nOUTPUT(z)\n";
    "a = NOT(b)\nb = NOT(a)\nOUTPUT(a)\n";
    "INPUT(a)\nz = NOT(a\nOUTPUT(z)\n";
    "INPUT(a)\nz = \nOUTPUT(z)\n";
    "INPUT(a)\nz = NOT(a)\nz = NOT(a)\nOUTPUT(z)\n";
    "INPUT(a)\nz = NOT()\nOUTPUT(z)\n";
  |]

let () =
  Prop.register ~name:"bench.rejects_malformed"
    (Gen.pick ~print:(Printf.sprintf "%S") malformed_benches)
    (fun text ->
      match Bench_io.parse_diag Tech.cmos025 text with
      | Error _ -> ()
      | Ok _ -> Prop.failf "malformed input parsed successfully: %S" text)

(* The one-scan parser against the line-list one it replaced
   (test/bench_oracle.ml): random statement orders of generated netlists,
   with the dialect's corners mixed in and one defect planted in most
   cases, must parse to the same node ids, names and diagnostics. *)

(* one .bench text: the statements of a generated dag, grid or iscas
   netlist plus extra ones, shuffled, with comments, blank lines and
   CRLF endings *)
let bench_text_gen =
  Gen.make ~print:(Printf.sprintf "%S") (fun rng size ->
      let nl =
        match Rng.int rng 3 with
        | 0 -> C.build_dag (C.dag_spec.Gen.gen rng size)
        | k ->
          Generator.generate_scale Tech.cmos025
            ~name:(Printf.sprintf "bp%Ld" (Rng.int64 rng))
            ~gates:(64 + Rng.int rng (1 + (10 * size)))
            ~shape:(if k = 1 then Generator.Grid else Generator.Iscas)
      in
      let signals =
        Array.of_list
          (List.map (Printf.sprintf "n%d") (Netlist.inputs nl @ Netlist.gate_ids nl))
      in
      let sig_ () = Rng.pick rng signals in
      let args n = String.concat ", " (List.init n (fun _ -> sig_ ())) in
      let spell op = if Rng.int rng 4 = 0 then String.lowercase_ascii op else op in
      let extra = ref [] in
      let add line = extra := line :: !extra in
      for k = 1 to Rng.int rng 4 do
        let op = Rng.pick rng [| "NAND"; "AND"; "OR"; "NOR"; "XOR"; "XNOR" |] in
        add (Printf.sprintf "wide_output_%d = %s(%s)" k (spell op) (args (1 + Rng.int rng 7)))
      done;
      (* names that share their first seven bytes (NULs included) or
         their non-blank bytes *)
      if Rng.int rng 4 = 0 then
        List.iter
          (fun name -> add (Printf.sprintf "%s = NOT(%s)" name (sig_ ())))
          [ "tie"; "tie\000"; "tie\000\000x"; "tie\001"; "ti e"; "t\tie x" ];
      for k = 1 to Rng.int rng 3 do
        add (Printf.sprintf "q%d = %s(%s)" k (spell "DFF") (sig_ ()));
        add (Printf.sprintf "u%d = NAND(q%d, %s)" k k (sig_ ()))
      done;
      if Rng.bool rng then add (Printf.sprintf "x1 = AOI21(%s)" (args 3));
      if Rng.bool rng then add (Printf.sprintf "x2 = OAI22(%s)" (args 4));
      if Rng.bool rng then
        add (Printf.sprintf "x3 = %s(%s)" (Rng.pick rng [| "BUF"; "BUFF"; "INV" |]) (sig_ ()));
      (* one defect, in most cases *)
      (match Rng.int rng 12 with
      | 0 ->
        add
          (Rng.pick rng
             [| Printf.sprintf "m1 = NAND(%s, zz_undefined)" (sig_ ());
                Printf.sprintf "m1 = NAND(zz_b, %s, zz_a, zz_b)" (sig_ ()) |])
      | 1 -> add (Printf.sprintf "%s = NOT(%s)" (Rng.pick rng signals) (sig_ ()))
      | 2 ->
        (* a duplicate whose first definition is stuck *)
        add "m2 = NOT(zz_later)";
        add (Printf.sprintf "m2 = NOT(%s)" (sig_ ()))
      | 3 ->
        add "c1 = NOT(c3)";
        add (Printf.sprintf "c2 = NAND(c1, %s)" (sig_ ()));
        add "c3 = NOR(c2, c2)";
        add "c4 = NOT(c2)"
      | 4 -> add (Printf.sprintf "%s = NAND(%s, %s)" "s1" "s1" (sig_ ()))
      | 5 -> add (Printf.sprintf "f1 = FROB(%s)" (sig_ ()))
      | 6 ->
        add
          (Rng.pick rng
             [| Printf.sprintf "a1 = NOT(%s)" (args 2); Printf.sprintf "a1 = AOI21(%s)" (args 2);
                Printf.sprintf "a1 = DFF(%s)" (args 2); Printf.sprintf "INPUT(%s)" (args 2);
                "a1 = NAND()"; "a1 = XOR( )"; "OUTPUT()"; "a1 = INPUT(b)" |])
      | 7 ->
        add
          (Rng.pick rng
             [| "garbage"; "= NOT(a)"; Printf.sprintf "y = NOT %s" (sig_ ()); "FOO(a)";
                "y = (a)"; "y = NOT(a"; "OUTPUT(zz_never)" |])
      | 8 ->
        add
          (Printf.sprintf "e1 = NOT(%s) # cin=%s" (sig_ ())
             (Rng.pick rng [| "-1"; "0"; "0.0"; "nan" |]))
      | _ -> ());
      let base = List.filter (( <> ) "") (String.split_on_char '\n' (Bench_io.to_string nl)) in
      let lines = Array.of_list (base @ !extra) in
      (match Rng.int rng 4 with
      | 0 -> ()
      | 1 ->
        let n = Array.length lines in
        for i = 0 to (n / 2) - 1 do
          let l = lines.(i) in
          lines.(i) <- lines.(n - 1 - i);
          lines.(n - 1 - i) <- l
        done
      | _ ->
        for i = Array.length lines - 1 downto 1 do
          let j = Rng.int rng (i + 1) in
          let l = lines.(i) in
          lines.(i) <- lines.(j);
          lines.(j) <- l
        done);
      let b = Buffer.create 4096 in
      Array.iter
        (fun l ->
          (match Rng.int rng 12 with
          | 0 -> Buffer.add_string b "\n"
          | 1 -> Buffer.add_string b "# a comment = NOT(x)\n"
          | 2 -> Buffer.add_string b "   \t \r\n"
          | _ -> ());
          Buffer.add_string b l;
          (match Rng.int rng 10 with
          | 0 ->
            Printf.bprintf b " # cin=%.3f wire=%.3f" (Rng.range rng 1. 20.) (Rng.range rng 0. 3.)
          | 1 -> Buffer.add_string b "#cin=9 wire=x cin=4.5"
          | 2 -> Buffer.add_string b "  # note"
          | _ -> ());
          Buffer.add_string b (if Rng.int rng 8 = 0 then "\r\n" else "\n"))
        lines;
      let text = Buffer.contents b in
      (* truncation mid-call *)
      if Rng.int rng 10 = 0 then
        match String.rindex_opt text '(' with
        | Some i -> String.sub text 0 (min (String.length text) (i + 1 + Rng.int rng 4))
        | None -> text
      else text)

(* everything a parse shows: node ids, kinds, fan-ins, sizes, loads and
   names, or the diagnostic, or the exception *)
let parse_view f =
  match f () with
  | Ok (t, names) ->
    let b = Buffer.create 1024 in
    for id = 0 to Netlist.id_bound t - 1 do
      let n = Netlist.node t id in
      Printf.bprintf b "%d:%s:%h:%h:%s;" id
        (match n.Netlist.kind with
        | Netlist.Primary_input -> "in"
        | Netlist.Cell k -> Gate_kind.name k)
        n.Netlist.cin n.Netlist.wire
        (String.concat "," (List.map string_of_int (Array.to_list n.Netlist.fanins)))
    done;
    List.iter (fun (id, l) -> Printf.bprintf b "o%d:%h;" id l) (Netlist.outputs t);
    `Ok (Buffer.contents b, Bench_io.to_string t, Bench_io.to_string ~names t, names)
  | Error d -> `Error (Pops_robust.Diag.one_line d)
  | exception e -> `Raised (Printexc.to_string e)

let outcome_view = function
  | Pops_robust.Outcome.Exact _ -> ("exact", [])
  | Pops_robust.Outcome.Degraded (_, ds) -> ("degraded", List.map Pops_robust.Diag.one_line ds)
  | Pops_robust.Outcome.Failed d -> ("failed", [ Pops_robust.Diag.one_line d ])

let () =
  Prop.register ~name:"bench.parse_matches_oracle" bench_text_gen (fun text ->
      let tech = Tech.cmos025 in
      let got = parse_view (fun () -> Bench_io.parse_diag tech text) in
      let want = parse_view (fun () -> Bench_oracle.parse_diag tech text) in
      (match (got, want) with
      | `Ok (g, gs, gn, gnames), `Ok (w, ws, wn, wnames) ->
        require (g = w) "node ids, kinds, fan-ins, sizes or loads differ";
        require (gs = ws) "to_string differs";
        require (gn = wn) "to_string ~names differs";
        require (gnames = wnames) "names differ"
      | `Error g, `Error w -> requiref (g = w) "diagnostic %S, oracle %S" g w
      | `Raised g, `Raised w -> requiref (g = w) "raised %S, oracle raised %S" g w
      | _ -> Prop.failf "outcomes differ in kind");
      let g = outcome_view (Bench_io.parse_o tech text) in
      let w = outcome_view (Bench_oracle.parse_o tech text) in
      requiref (g = w) "parse_o %s [%s], oracle %s [%s]" (fst g)
        (String.concat "; " (snd g)) (fst w) (String.concat "; " (snd w)))

(* JSON string bodies are copied by runs; the per-byte reader they
   replaced (test/json_oracle.ml) must agree on every decoded string and
   every error offset: random bytes, every escape, good and bad \u,
   unknown escapes, truncation mid-escape and unterminated strings *)
let json_text_gen =
  Gen.make ~print:(Printf.sprintf "%S") (fun rng size ->
      let b = Buffer.create 64 in
      let piece () =
        match Rng.int rng 12 with
        | 0 | 1 | 2 ->
          for _ = 0 to Rng.int rng (1 + (4 * size)) do
            Buffer.add_char b (Char.chr (32 + Rng.int rng 95))
          done
        | 3 -> Buffer.add_char b (Char.chr (Rng.int rng 256))
        | 4 ->
          Buffer.add_char b '\\';
          Buffer.add_char b (Rng.pick rng [| '"'; '\\'; '/'; 'b'; 'f'; 'n'; 'r'; 't' |])
        | 5 ->
          Buffer.add_string b "\\u";
          for _ = 1 to 4 do
            Buffer.add_char b (Rng.pick rng [| '0'; '7'; 'a'; 'F'; 'c'; '1'; 'e'; 'D' |])
          done
        | 6 ->
          Buffer.add_string b
            (Rng.pick rng [| "\\u12g4"; "\\u-123"; "\\u1_2_"; "\\u+7ff"; "\\u00" |])
        | 7 -> Buffer.add_string b (Rng.pick rng [| "\\x"; "\\a"; "\\U0041"; "\\0" |])
        | 8 -> Buffer.add_string b "INPUT(a)\\nOUTPUT(y)\\ny = NOT(a)\\n"
        | _ -> Buffer.add_string b "abc"
      in
      for _ = 0 to Rng.int rng (1 + size) do
        piece ()
      done;
      let body = Buffer.contents b in
      let str =
        match Rng.int rng 8 with
        | 0 -> "\"" ^ body (* unterminated *)
        | 1 -> "\"" ^ body ^ "\\" (* truncated mid-escape *)
        | 2 -> "\"" ^ body ^ "\\u0" (* truncated \u *)
        | _ -> "\"" ^ body ^ "\""
      in
      match Rng.int rng 3 with
      | 0 -> str
      | 1 -> Printf.sprintf "{\"action\": \"analyze\", \"bench\": %s}" str
      | _ -> Printf.sprintf "[%s, %s]" str str)

let () =
  Prop.register ~name:"json.string_matches_oracle" json_text_gen (fun text ->
      let show = function
        | Ok v -> "ok " ^ Pops_serve.Json.to_string v
        | Error e -> "error " ^ e
      in
      let got = Pops_serve.Json.parse text and want = Json_oracle.parse text in
      requiref (got = want) "parse gives %s, the oracle %s" (show got) (show want))

(* ================================================================== *)
(* generator and STA                                                   *)
(* ================================================================== *)

let () =
  Prop.register ~name:"generator.spine_valid" C.spine_spec (fun sp ->
      let nl, spine = C.build_spine Tech.cmos025 sp in
      (match Netlist.validate nl with
      | Ok () -> ()
      | Error e -> Prop.failf "generated spine circuit invalid: %s" e);
      requiref (List.length spine = sp.C.sp_path_gates)
        "spine has %d gates, profile says %d" (List.length spine) sp.C.sp_path_gates;
      requiref (Netlist.depth nl = sp.C.sp_path_gates)
        "spine does not realise the depth: depth %d, spine %d" (Netlist.depth nl)
        sp.C.sp_path_gates)

let () =
  Prop.register ~name:"sta.incremental_equals_fresh"
    (Gen.pair C.dag_spec (Gen.list_sized ~min_len:1 C.edit))
    (fun (d, edits) ->
      let nl = C.build_dag d in
      let lib = C.library (Netlist.tech nl) in
      let t = Timing.analyze ~lib nl in
      List.iter
        (fun e ->
          C.apply_edit nl e;
          Timing.update t)
        edits;
      let fresh = Timing.analyze ~lib nl in
      requiref (Timing.critical_delay t = Timing.critical_delay fresh)
        "incremental critical delay %.17g <> fresh %.17g (bit equality required)"
        (Timing.critical_delay t) (Timing.critical_delay fresh);
      List.iter
        (fun id ->
          List.iter
            (fun e ->
              let a = Timing.arrival t id e and b = Timing.arrival fresh id e in
              if not (a.Timing.time = b.Timing.time && a.Timing.slope = b.Timing.slope) then
                Prop.failf "node %d %s: incremental (%.17g, %.17g) <> fresh (%.17g, %.17g)"
                  id (match e with Edge.Rising -> "rise" | Edge.Falling -> "fall")
                  a.Timing.time a.Timing.slope b.Timing.time b.Timing.slope)
            [ Edge.Rising; Edge.Falling ])
        (Netlist.inputs nl @ Netlist.gate_ids nl))

(* the backward mirror of the invariant above: required times and slacks
   queried lazily through an edit sequence must equal the record-based
   oracle's fresh backward sweep of the netlist of the moment, bit for
   bit (NaN-aware).  After each edit — sometimes with no [slacks_update],
   sometimes after an internal gate became an output that drives gates —
   a random subset of ids (sinks, deep nodes, ids a De Morgan rewrite
   deleted, out-of-range ids) is queried in random order against a fresh
   oracle, so the lazily swept suffix is entered from arbitrary points;
   the critical delay and path must match the oracle's too.  Then every
   id is compared. *)
let () =
  Prop.register ~name:"sta.incremental_slack_equals_fresh"
    (Gen.triple C.dag_spec (Gen.list_sized ~min_len:1 C.edit) Gen.int64)
    (fun (d, edits, seed) ->
      let nl = C.build_dag d in
      let lib = C.library (Netlist.tech nl) in
      let t = Timing.analyze ~lib nl in
      let tc = 0.75 *. Timing.critical_delay t in
      let s = Timing.slacks_make t ~tc in
      let rng = Rng.create seed in
      let same a b = a = b || (Float.is_nan a && Float.is_nan b) in
      let required get id e = match get id e with r -> r | exception Not_found -> Float.nan in
      let check ~what oracle id =
        List.iter
          (fun e ->
            let a = required (Timing.required s) id e
            and b = required (Timing_oracle.required oracle) id e in
            if not (same a b) then
              Prop.failf "%s: node %d %s: incremental required %.17g <> fresh %.17g"
                what id (match e with Edge.Rising -> "rise" | Edge.Falling -> "fall")
                a b)
          [ Edge.Rising; Edge.Falling ];
        let a = Timing.node_slack s id and b = Timing_oracle.node_slack oracle id in
        if not (same a b) then
          Prop.failf "%s: node %d: incremental slack %.17g <> fresh %.17g" what id a b
      in
      List.iteri
        (fun step e ->
          let what = Printf.sprintf "after edit %d (%s)" step (C.print_edit e) in
          C.apply_edit nl e;
          (if Rng.int rng 3 = 0 then
             let driving =
               List.filter
                 (fun g -> (Netlist.node nl g).Netlist.fanouts <> [])
                 (Netlist.gate_ids nl)
             in
             if driving <> [] then
               Netlist.set_output nl
                 (Rng.pick rng (Array.of_list driving))
                 ~load:(5. +. Rng.float rng 55.));
          if Rng.bool rng then Timing.slacks_update s;
          let fresh = Timing_oracle.analyze ~lib nl in
          let oracle = Timing_oracle.slacks fresh ~tc in
          let ids = Array.init (Netlist.id_bound nl + 4) (fun i -> i - 2) in
          for i = Array.length ids - 1 downto 1 do
            let j = Rng.int rng (i + 1) in
            let x = ids.(i) in
            ids.(i) <- ids.(j);
            ids.(j) <- x
          done;
          for i = 0 to Rng.int rng (Array.length ids) do
            check ~what oracle ids.(i)
          done;
          requiref (Timing.critical_delay t = Timing_oracle.critical_delay fresh)
            "%s: incremental critical delay %.17g <> fresh %.17g" what
            (Timing.critical_delay t) (Timing_oracle.critical_delay fresh);
          requiref (Timing.critical_path t = Timing_oracle.critical_path fresh)
            "%s: critical path differs from a fresh analysis" what)
        edits;
      let fresh = Timing_oracle.slacks (Timing_oracle.analyze ~lib nl) ~tc in
      List.iter (check ~what:"final" fresh)
        (List.init (Netlist.id_bound nl + 4) (fun i -> i - 2)))

(* two disjoint copies of [nl] in one netlist, each output designated
   right after its twin: every arrival has a bit-identical twin, so the
   worst endpoint is always a tie *)
let twin nl =
  let d = Netlist.create (Netlist.tech nl) in
  let copy () =
    let map = Array.make (Netlist.id_bound nl) (-1) in
    List.iter
      (fun id ->
        let n = Netlist.node nl id in
        map.(id) <-
          (match n.Netlist.kind with
          | Netlist.Primary_input -> Netlist.add_input d
          | Netlist.Cell k ->
            Netlist.add_gate ~cin:n.Netlist.cin ~wire:n.Netlist.wire d k
              (Array.map (fun f -> map.(f)) n.Netlist.fanins)))
      (Netlist.topological_order nl);
    map
  in
  let a = copy () in
  let b = copy () in
  List.iter
    (fun (id, load) ->
      Netlist.set_output d a.(id) ~load;
      Netlist.set_output d b.(id) ~load)
    (Netlist.outputs nl);
  d

let () =
  Prop.register ~name:"sta.critical_path_consistent" C.dag_spec (fun d ->
      let nl = twin (C.build_dag d) in
      let lib = C.library (Netlist.tech nl) in
      let t = Timing.analyze ~lib nl in
      let path = Timing.critical_path t in
      require (path <> []) "critical path is empty";
      let source = List.hd path in
      requiref (Netlist.kind nl source = Netlist.Primary_input)
        "critical path starts at %d, not a primary input" source;
      let rec check_chain = function
        | a :: (b :: _ as rest) ->
          let fi = (Netlist.node nl b).Netlist.fanins in
          requiref (Array.exists (fun f -> f = a) fi)
            "critical path broken: %d is not a fan-in of %d" a b;
          check_chain rest
        | _ -> ()
      in
      check_chain path;
      let last = List.nth path (List.length path - 1) in
      requiref (List.mem_assoc last (Netlist.outputs nl))
        "critical path ends at %d, not a primary output" last;
      let worst =
        List.fold_left
          (fun acc (id, _) ->
            let _, a = Timing.node_worst t id in
            Float.max acc a.Timing.time)
          0. (Netlist.outputs nl)
      in
      requiref (worst = Timing.critical_delay t)
        "critical delay %.17g is not the max over outputs %.17g" (Timing.critical_delay t)
        worst;
      (* ties go to the first output in designation order *)
      let first, _ =
        List.find
          (fun (id, _) -> (snd (Timing.node_worst t id)).Timing.time = worst)
          (Netlist.outputs nl)
      in
      requiref (last = first)
        "critical path ends at %d, the first output at the max is %d" last first)

(* ================================================================== *)
(* flow                                                                *)
(* ================================================================== *)

let () =
  Prop.register ~max_size:4 ~name:"flow.never_worsens"
    (Gen.pair C.spine_spec (Gen.float_range 0.5 1.2))
    (fun (sp, factor) ->
      let nl, _ = C.build_spine Tech.cmos025 sp in
      let lib = C.library Tech.cmos025 in
      let t0 = Timing.critical_delay (Timing.analyze ~lib nl) in
      let tc = t0 *. factor in
      let r = Pops_robust.Outcome.get (Flow.optimize_o ~max_rounds:3 ~lib ~tc nl) in
      requiref (r.Flow.final_delay <= (r.Flow.initial_delay *. (1. +. 1e-9)) +. 1e-6)
        "flow worsened the critical delay: %.6g -> %.6g" r.Flow.initial_delay
        r.Flow.final_delay;
      (match r.Flow.equivalence with
      | Ok () -> ()
      | Error e -> Prop.failf "flow broke logic equivalence: %s" e);
      match r.Flow.outcome with
      | Flow.Met ->
        requiref (r.Flow.final_delay <= tc +. 1e-6)
          "outcome Met but final delay %.6g > tc %.6g" r.Flow.final_delay tc
      | Flow.No_progress | Flow.Budget_exhausted -> ())

(* The rewind replays a prefix of the flow's edit log onto the pre-flow
   copy; most of these closures overshoot and rewind.  The netlist it
   lands on must be the best state the run saw: a cold analysis reads
   the reported final delay bit for bit, and no round started faster. *)
let () =
  let shape =
    Gen.pick ~print:Generator.scale_shape_name [| Generator.Grid; Generator.Iscas |]
  in
  Prop.register ~cases:240 ~name:"flow.rewind_lands_on_best"
    (Gen.pair
       (Gen.triple (Gen.int_range 1 1_000_000) (Gen.int_range 100 300)
          (Gen.float_range 0.5 0.85))
       shape)
    (fun ((seed, gates, ratio), shape) ->
      let nl =
        Generator.generate_scale Tech.cmos025 ~name:(Printf.sprintf "r%d" seed) ~gates
          ~shape
      in
      let lib = C.library Tech.cmos025 in
      let tc = ratio *. Timing.critical_delay (Timing.analyze ~lib nl) in
      let r = Pops_robust.Outcome.get (Flow.optimize_o ~lib ~tc nl) in
      let cold = Timing.critical_delay (Timing.analyze ~lib nl) in
      requiref
        (Int64.bits_of_float cold = Int64.bits_of_float r.Flow.final_delay)
        "final delay %.17g, a cold analysis reads %.17g" r.Flow.final_delay cold;
      requiref (r.Flow.final_delay <= r.Flow.initial_delay)
        "final delay %.17g above the initial %.17g" r.Flow.final_delay
        r.Flow.initial_delay;
      List.iter
        (fun (it : Flow.iteration) ->
          requiref (r.Flow.final_delay <= it.Flow.critical_delay)
            "final delay %.17g above round %d's start %.17g" r.Flow.final_delay
            it.Flow.round it.Flow.critical_delay)
        r.Flow.iterations;
      match r.Flow.equivalence with
      | Ok () -> ()
      | Error e -> Prop.failf "flow broke logic equivalence: %s" e)

(* ================================================================== *)
(* rng and pool                                                        *)
(* ================================================================== *)

let () =
  Prop.register ~name:"rng.replay_and_split" Gen.int64 (fun seed ->
      let draws n rng = List.init n (fun _ -> Rng.int64 rng) in
      require (draws 16 (Rng.create seed) = draws 16 (Rng.create seed))
        "same seed did not replay the same stream";
      let p1 = Rng.create seed and p2 = Rng.create seed in
      let p1, c1 = Rng.split p1 and p2, c2 = Rng.split p2 in
      require (draws 16 c1 = draws 16 c2) "split children do not replay";
      let after_split = draws 16 p1 in
      require (after_split = draws 16 p2) "split parents do not replay";
      let plain = Rng.create seed in
      ignore (Rng.int64 plain);
      require (after_split = draws 16 plain)
        "split changed the parent stream (must equal one plain draw)";
      (* independence in the statistical sense: child stream must not
         mirror the parent stream (collision chance ~2^-1024) *)
      let p = Rng.create seed in
      let _, c = Rng.split p in
      require (draws 16 p <> draws 16 c) "child stream mirrors the parent stream")

(* the CSR level sweep must be bit-identical to the record-based
   oracle: same arithmetic grouping, same fan-in visit order, same
   keep-first tie break; and so must the critical endpoint scan and the
   provenance walk behind the critical delay and path *)
let () =
  Prop.register ~cases:25 ~name:"sta.csr_sweep_equals_reference" C.dag_spec
    (fun d ->
      let nl = C.build_dag d in
      let lib = C.library (Netlist.tech nl) in
      let reference = Timing_oracle.analyze ~lib nl in
      let t = Timing.analyze ~lib nl in
      requiref
        (Timing.critical_delay t = Timing_oracle.critical_delay reference)
        "critical delay %.17g <> reference %.17g" (Timing.critical_delay t)
        (Timing_oracle.critical_delay reference);
      require
        (Timing.critical_path t = Timing_oracle.critical_path reference)
        "critical path differs from the reference";
      List.iter
        (fun id ->
          List.iter
            (fun e ->
              let a = Timing.arrival t id e and b = Timing_oracle.arrival reference id e in
              if
                not
                  (a.Timing.time = b.Timing.time
                  && a.Timing.slope = b.Timing.slope
                  && a.Timing.from_ = b.Timing.from_)
              then
                Prop.failf "node %d %s arrival differs from the reference" id
                  (match e with Edge.Rising -> "rise" | Edge.Falling -> "fall"))
            [ Edge.Rising; Edge.Falling ])
        (Netlist.inputs nl @ Netlist.gate_ids nl))

let () =
  Prop.register ~name:"pool.parallel_map_ordered"
    (Gen.list_sized ~min_len:1 (Gen.int_range (-1000) 1000))
    (fun xs ->
      let arr = Array.of_list xs in
      let f i = (i * 31) + (i * i) in
      let par = Pool.parallel_map f arr in
      let seq = Array.map f arr in
      require (par = seq) "parallel_map result differs from sequential map")

(* ================================================================== *)
(* SPICE differential oracle                                           *)
(* ================================================================== *)

(* tolerance bands recorded in the golden file: lines
   "<tech-name> <lo> <hi>" bounding sim_delay / model_delay, and
   "<tech-name>.<vt-class> <lo> <hi> <leak-factor>" for the per-Vt
   differential rows, whose fourth column locks the class's leakage
   multiplier at the model level *)
let golden_tables =
  lazy
    (let path =
       if Sys.file_exists "spice_tolerances.golden" then "spice_tolerances.golden"
       else if Sys.file_exists "test/spice_tolerances.golden" then
         "test/spice_tolerances.golden"
       else failwith "spice_tolerances.golden not found (run from repo root or test/)"
     in
     let bands = Hashtbl.create 64 in
     let leaks = Hashtbl.create 64 in
     let ic = open_in path in
     (try
        while true do
          let line = String.trim (input_line ic) in
          if line <> "" && line.[0] <> '#' then
            match
              List.filter (( <> ) "") (String.split_on_char ' ' line)
            with
            | [ n; lo; hi ] ->
              Hashtbl.replace bands n (float_of_string lo, float_of_string hi)
            | [ n; lo; hi; leak ] ->
              Hashtbl.replace bands n (float_of_string lo, float_of_string hi);
              Hashtbl.replace leaks n (float_of_string leak)
            | _ -> failwith ("malformed spice_tolerances.golden line: " ^ line)
        done
      with End_of_file -> ());
     close_in ic;
     (bands, leaks))

let golden_band key =
  match Hashtbl.find_opt (fst (Lazy.force golden_tables)) key with
  | Some band -> band
  | None -> Prop.failf "%s missing from spice_tolerances.golden" key

let () =
  Prop.register ~name:"spice.model_tracks_simulation" C.spice_chain (fun s ->
      (* sanitizing keeps shrunk values inside the calibrated envelope *)
      let s = C.sanitize_spice s in
      let lo, hi = golden_band s.C.p_tech.Tech.name in
      let p = path_of s in
      let x = Path.clamp_sizing p (C.sizing s) in
      let sim = Transient.simulate_path ~steps_per_stage:500 p x in
      let model = Path.delay p x in
      let ratio = sim.Transient.total_delay /. model in
      requiref (ratio >= lo && ratio <= hi)
        "sim/model ratio %.4f outside golden band [%.3f, %.3f] (sim %.6g ps, model %.6g ps)"
        ratio lo hi sim.Transient.total_delay model)

(* Per-Vt-class differential: rebuild the chain in one Vt class
   (Vt-variant cells on the model side, the class's threshold shift in
   the path's tech record on the simulator side) and hold the sim/model
   ratio to the class's own golden band.  The simulator's transistors
   cut off cleanly below threshold — there is no subthreshold current to
   measure — so the leakage half of the class is locked at the model
   level against the golden file's recorded multiplier. *)
let () =
  Prop.register ~name:"spice.vt_model_tracks_simulation"
    (Gen.pair C.spice_chain (Gen.int_range 0 (Pops_process.Vt.count - 1)))
    (fun (s, vi) ->
      let s = C.sanitize_spice s in
      let vt = Pops_process.Vt.of_int vi in
      let tech = s.C.p_tech in
      let key =
        Printf.sprintf "%s.%s" tech.Tech.name (Pops_process.Vt.name vt)
      in
      let lo, hi = golden_band key in
      let p = C.to_vt_path s vt in
      let x = Path.clamp_sizing p (C.sizing s) in
      let sim = Transient.simulate_path ~steps_per_stage:500 p x in
      let model = Path.delay p x in
      let ratio = sim.Transient.total_delay /. model in
      requiref (ratio >= lo && ratio <= hi)
        "%s sim/model ratio %.4f outside golden band [%.3f, %.3f] (sim %.6g ps, model %.6g ps)"
        key ratio lo hi sim.Transient.total_delay model;
      let golden_leak =
        match Hashtbl.find_opt (snd (Lazy.force golden_tables)) key with
        | Some l -> l
        | None -> Prop.failf "%s has no leak-factor column in the golden file" key
      in
      let lib = C.library tech in
      List.iter
        (fun kind ->
          let cell = Library.find_vt lib kind vt in
          requiref
            (Float.abs (cell.Cell.leak_factor -. golden_leak)
            <= 1e-4 *. Float.max 1. golden_leak)
            "leak_factor %.6g of %s drifted from golden %.6g"
            cell.Cell.leak_factor key golden_leak;
          requiref (cell.Cell.tau_factor >= 1.)
            "tau_factor %.6g < 1: a higher-Vt cell cannot be faster" cell.Cell.tau_factor)
        s.C.kinds)

(* ================================================================== *)
(* fault injection: the resilience contract                            *)
(* ================================================================== *)

(* Each case derives a deterministic POPS_FAULT spec from a generated
   seed (under the CI fault leg, [Fault.case_spec] keeps the ambient
   point selection and only re-seeds), arms it with [Fault.with_spec]
   for the duration of the case, and asserts the engine's resilience
   contract: no crash, every degradation reported, degraded results
   still valid. *)

module Diag = Pops_robust.Diag
module Outcome = Pops_robust.Outcome

let has_code code diags = List.exists (fun d -> d.Diag.code = code) diags

let spec_and_seed = Gen.pair spec Gen.int64

let () =
  Prop.register ~name:"fault.solver_never_crashes" spec_and_seed (fun (s, seed) ->
      let p = path_of s in
      let r =
        Fault.with_spec
          (Fault.solver_spec (Rng.create seed))
          (fun () -> Sens.solve p)
      in
      require
        (Array.for_all Float.is_finite r.Sens.sizing)
        "faulted solve returned a non-finite sizing";
      requiref
        (Float.is_finite (Path.delay_worst p r.Sens.sizing))
        "faulted solve's sizing has non-finite delay (rung %s)"
        (Sens.rung_name r.Sens.fallback))

let () =
  Prop.register ~name:"fault.ladder_descent_reported" spec_and_seed
    (fun (s, seed) ->
      let p = path_of s in
      let r =
        Fault.with_spec
          (Fault.solver_spec (Rng.create seed))
          (fun () -> Sens.solve p)
      in
      if r.Sens.fallback <> Sens.Accelerated then begin
        require (r.Sens.diags <> []) "silent ladder descent";
        requiref
          (has_code Diag.Solver_fallback r.Sens.diags)
          "descent to %s missing the Solver_fallback diagnostic"
          (Sens.rung_name r.Sens.fallback);
        require
          (has_code Diag.Solver_divergence r.Sens.diags
          || has_code Diag.Solver_nonfinite r.Sens.diags)
          "descent without a divergence/non-finite cause on record"
      end)

let () =
  Prop.register ~name:"fault.full_ladder_delay_bounded" spec_and_seed
    (fun (s, seed) ->
      let p = path_of s in
      (* bounds computed healthy, before arming *)
      let b = Bounds.compute p in
      let r =
        Fault.with_spec
          (Printf.sprintf "solver.diverge,seed=%Ld" seed)
          (fun () -> Sens.solve p)
      in
      requiref
        (r.Sens.fallback = Sens.Tmax_safe)
        "all rungs forced to diverge but landed on %s"
        (Sens.rung_name r.Sens.fallback);
      let d = Path.delay_worst p r.Sens.sizing in
      requiref
        (d <= b.Bounds.tmax *. (1. +. 1e-9))
        "Tmax-safe sizing slower than the Tmax bound: %.6g > %.6g" d
        b.Bounds.tmax)

let () =
  Prop.register ~name:"fault.solve_outcome_never_fails" spec_and_seed
    (fun (s, seed) ->
      let p = path_of s in
      let r =
        Fault.with_spec (Fault.solver_spec (Rng.create seed)) (fun () -> Sens.solve p)
      in
      match Outcome.make r.Sens.sizing r.Sens.diags with
      | Outcome.Failed d ->
        Prop.failf "solver fault escalated to Failed: %s" (Diag.one_line d)
      | Outcome.Exact x ->
        require (Array.for_all Float.is_finite x) "Exact sizing non-finite"
      | Outcome.Degraded (x, diags) ->
        require (Array.for_all Float.is_finite x) "Degraded sizing non-finite";
        require (diags <> []) "Degraded with an empty diagnostic list")

let () =
  Prop.register ~name:"fault.deterministic_replay" spec_and_seed (fun (s, seed) ->
      let p = path_of s in
      let spec = Fault.solver_spec (Rng.create seed) in
      let run () = Fault.with_spec spec (fun () -> Sens.solve p) in
      let r1 = run () and r2 = run () in
      require (r1.Sens.fallback = r2.Sens.fallback) "replay changed the rung";
      require (r1.Sens.sizing = r2.Sens.sizing)
        "replay changed the sizing bit pattern")

let () =
  Prop.register ~name:"fault.unarmed_points_never_fire" Gen.int64 (fun seed ->
      Fault.with_spec
        (Printf.sprintf "solver.diverge.accel,seed=%Ld" seed)
        (fun () ->
          require (not (Fault.fire "pool.raise")) "unarmed pool point fired";
          require (not (Fault.fire "bench.truncate")) "unarmed bench point fired";
          require
            (not (Fault.fire "solver.diverge.plain"))
            "sibling point fired from a fully-qualified spec";
          require (Fault.fire "solver.diverge.accel") "armed point did not fire");
      List.iter
        (fun p ->
          requiref (not (Fault.fire p)) "point %s fired after the spec was restored" p)
        Fault.points)

let () =
  Prop.register ~name:"fault.pool_contains_every_task"
    (Gen.list_sized ~min_len:1 (Gen.int_range (-50) 50))
    (fun xs ->
      let slots =
        Fault.with_spec "pool.raise" (fun () ->
            Pool.map_list_contained (fun x -> x * 2) xs)
      in
      requiref (List.length slots = List.length xs)
        "containment changed the slot count: %d <> %d" (List.length slots)
        (List.length xs);
      List.iter
        (fun (result, _) ->
          match result with
          | Error d ->
            requiref
              (d.Diag.code = Diag.Pool_task_failed)
              "contained slot carries %s, not pool-task-failed"
              (Diag.code_name d.Diag.code)
          | Ok _ -> Prop.failf "a task survived a prob-1 pool.raise")
        slots;
      (* disarmed, the same fan-out is exact *)
      let healthy = Pool.map_list_contained (fun x -> x * 2) xs in
      List.iter2
        (fun x (result, _) ->
          match result with
          | Ok y -> requiref (y = 2 * x) "healthy slot wrong: %d <> %d" y (2 * x)
          | Error d -> Prop.failf "healthy task contained: %s" (Diag.one_line d))
        xs healthy)

let () =
  Prop.register ~name:"fault.pool_probabilistic_mix"
    (Gen.pair (Gen.list_sized ~min_len:4 (Gen.int_range 0 50)) Gen.int64)
    (fun (xs, seed) ->
      let slots =
        Fault.with_spec
          (Printf.sprintf "pool.raise@0.5,seed=%Ld" seed)
          (fun () -> Pool.map_list_contained (fun x -> x + 1) xs)
      in
      List.iter2
        (fun x (result, _) ->
          match result with
          | Ok y -> requiref (y = x + 1) "surviving slot wrong: %d <> %d" y (x + 1)
          | Error d ->
            requiref
              (d.Diag.code = Diag.Pool_task_failed)
              "contained slot carries %s" (Diag.code_name d.Diag.code))
        xs slots)

let () =
  Prop.register ~name:"fault.bench_truncation_contained"
    (Gen.pair C.dag_spec Gen.int64)
    (fun (d, seed) ->
      let nl = C.build_dag d in
      let text = Bench_io.to_string nl in
      match
        Fault.with_spec
          (Printf.sprintf "bench.truncate,seed=%Ld" seed)
          (fun () -> Bench_io.parse_o (Netlist.tech nl) text)
      with
      | Outcome.Failed diag ->
        (* a cut file must be rejected with a typed, user-actionable
           diagnostic, never an exception or an internal code *)
        requiref
          (Diag.classify diag.Diag.code = `Invalid_input)
          "truncation produced a non-input diagnostic: %s"
          (Diag.one_line diag)
      | Outcome.Exact (b, _) | Outcome.Degraded ((b, _), _) -> (
        (* the cut can land on a statement boundary and still parse;
           then the result must be a valid netlist *)
        match Netlist.validate b with
        | Ok () -> ()
        | Error e -> Prop.failf "truncated parse produced an invalid netlist: %s" e))

let () =
  (* [Fault.case_spec] draws one registered point per case — or keeps the
     ambient POPS_FAULT selection under the CI fault leg — so this sweeps
     the whole registry through a combined solve + parse + fan-out pass
     without ever crashing *)
  Prop.register ~name:"fault.engine_never_crashes" spec_and_seed (fun (s, seed) ->
      let p = path_of s in
      Fault.with_spec
        (Fault.case_spec (Rng.create seed))
        (fun () ->
          let r = Sens.solve p in
          require
            (Array.for_all Float.is_finite r.Sens.sizing)
            "solve under an arbitrary fault point lost finiteness";
          (match
             Bench_io.parse_o Tech.cmos025
               "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn1 = NAND(a, b)\ny = NOT(n1)\n"
           with
          | Outcome.Failed d ->
            requiref
              (Diag.classify d.Diag.code = `Invalid_input)
              "parse under faults failed with a non-input code: %s"
              (Diag.one_line d)
          | Outcome.Exact _ | Outcome.Degraded _ -> ());
          let slots = Pool.map_list_contained (fun x -> x + 1) [ 1; 2; 3 ] in
          List.iter
            (fun (result, _) ->
              match result with
              | Ok _ | Error { Diag.code = Diag.Pool_task_failed; _ } -> ()
              | Error d ->
                Prop.failf "fan-out under faults produced %s" (Diag.one_line d))
            slots))

let () =
  Prop.register ~max_size:4 ~name:"fault.flow_survives_storm"
    (Gen.pair (Gen.pair C.spine_spec (Gen.float_range 0.4 1.1)) Gen.int64)
    (fun ((sp, factor), seed) ->
      let nl, _ = C.build_spine Tech.cmos025 sp in
      let lib = C.library Tech.cmos025 in
      let t0 = Timing.critical_delay (Timing.analyze ~lib nl) in
      let tc = t0 *. factor in
      match
        Fault.with_spec
          (Printf.sprintf "all,seed=%Ld" seed)
          (fun () -> Flow.optimize_o ~max_rounds:3 ~lib ~tc nl)
      with
      | Outcome.Failed diag ->
        Prop.failf "flow failed on a valid netlist under faults: %s"
          (Diag.one_line diag)
      | Outcome.Exact r | Outcome.Degraded (r, _) ->
        requiref
          (r.Flow.final_delay <= (r.Flow.initial_delay *. (1. +. 1e-9)) +. 1e-6)
          "faulted flow worsened the delay: %.6g -> %.6g" r.Flow.initial_delay
          r.Flow.final_delay;
        (match r.Flow.equivalence with
        | Ok () -> ()
        | Error e -> Prop.failf "faulted flow broke equivalence: %s" e);
        match Netlist.validate nl with
        | Ok () -> ()
        | Error e -> Prop.failf "faulted flow left an invalid netlist: %s" e)

let () =
  Prop.register ~max_size:4 ~name:"fault.flow_reports_contained_tasks"
    (Gen.pair C.spine_spec Gen.int64)
    (fun (sp, seed) ->
      let nl, _ = C.build_spine Tech.cmos025 sp in
      let lib = C.library Tech.cmos025 in
      let t0 = Timing.critical_delay (Timing.analyze ~lib nl) in
      (* unreachable target, so at least one round must fan out *)
      let tc = t0 *. 0.01 in
      match
        Fault.with_spec
          (Printf.sprintf "pool.raise,seed=%Ld" seed)
          (fun () -> Flow.optimize_o ~max_rounds:2 ~lib ~tc nl)
      with
      | Outcome.Failed diag ->
        Prop.failf "contained tasks escalated to Failed: %s" (Diag.one_line diag)
      | Outcome.Exact _ -> Prop.failf "every task was killed yet the run is Exact"
      | Outcome.Degraded (_, diags) ->
        require
          (has_code Diag.Pool_task_failed diags)
          "contained pool tasks left no diagnostic in the outcome")

(* ================================================================== *)
(* multi-Vt assignment                                                 *)
(* ================================================================== *)

module Vt = Pops_process.Vt
module Vt_assign = Pops_flow.Vt_assign

let spine_and_slack = Gen.pair C.spine_spec (Gen.float_range 1.0 1.6)

(* (a) the pass spends slack, never timing: when the incoming netlist
   meets Tc, the worst arrival after every swap still meets it *)
let () =
  Prop.register ~max_size:6 ~name:"vt.slack_never_negative" spine_and_slack
    (fun (sp, factor) ->
      let nl, _ = C.build_spine Tech.cmos025 sp in
      let lib = C.library Tech.cmos025 in
      let timing = Timing.analyze ~lib nl in
      let tc = factor *. Timing.critical_delay timing in
      let r = Vt_assign.run ~lib ~tc ~timing nl in
      let d = Timing.critical_delay timing in
      requiref (d <= tc)
        "vt pass un-met the constraint: delay %.17g > tc %.17g (%d swaps)" d tc
        r.Vt_assign.accepted;
      let fresh = Timing.critical_delay (Timing.analyze ~lib nl) in
      requiref (d = fresh)
        "incremental delay %.17g diverged from fresh STA %.17g after swaps" d
        fresh)

(* (b) leakage is monotone non-increasing across the swap loop, and the
   report's leakage matches the power report bitwise *)
let () =
  Prop.register ~max_size:6 ~name:"vt.leakage_monotone" spine_and_slack
    (fun (sp, factor) ->
      let nl, _ = C.build_spine Tech.cmos025 sp in
      let lib = C.library Tech.cmos025 in
      let timing = Timing.analyze ~lib nl in
      let tc = factor *. Timing.critical_delay timing in
      let before = (Pops_sta.Power.analyze ~lib nl).Pops_sta.Power.leakage_uw in
      let r = Vt_assign.run ~lib ~tc ~timing nl in
      requiref (r.Vt_assign.leakage_before = before)
        "report leakage_before %.17g <> power report %.17g"
        r.Vt_assign.leakage_before before;
      requiref (r.Vt_assign.leakage_after <= r.Vt_assign.leakage_before)
        "leakage increased: %.17g -> %.17g" r.Vt_assign.leakage_before
        r.Vt_assign.leakage_after;
      let after = (Pops_sta.Power.analyze ~lib nl).Pops_sta.Power.leakage_uw in
      requiref (r.Vt_assign.leakage_after = after)
        "report leakage_after %.17g <> power report %.17g"
        r.Vt_assign.leakage_after after;
      if r.Vt_assign.accepted = 0 then
        requiref (r.Vt_assign.leakage_after = r.Vt_assign.leakage_before)
          "zero swaps yet leakage moved: %.17g -> %.17g"
          r.Vt_assign.leakage_before r.Vt_assign.leakage_after)

(* (c) the all-LVT state is the identity: under an unmeetable Tc no swap
   is accepted, every gate stays LVT, the arrival state is bitwise the
   baseline and the leakage-weighted area degenerates to the plain
   area (every LVT factor is exactly 1.0) *)
let () =
  Prop.register ~max_size:6 ~name:"vt.all_lvt_is_baseline" C.spine_spec
    (fun sp ->
      let nl, _ = C.build_spine Tech.cmos025 sp in
      let lib = C.library Tech.cmos025 in
      let timing = Timing.analyze ~lib nl in
      let d0 = Timing.critical_delay timing in
      let r = Vt_assign.run ~lib ~tc:(0.5 *. d0) ~timing nl in
      requiref (r.Vt_assign.accepted = 0)
        "unmeetable Tc accepted %d swaps" r.Vt_assign.accepted;
      List.iter
        (fun id ->
          require
            (Netlist.vt_of nl id = Vt.Lvt)
            "a rejected swap left a non-LVT gate behind")
        (Netlist.gate_ids nl);
      requiref
        (Timing.critical_delay timing = d0)
        "rejected swaps moved the arrival state: %.17g <> %.17g"
        (Timing.critical_delay timing) d0;
      requiref
        (Netlist.total_leakage_area nl lib = Netlist.total_area nl lib)
        "all-LVT leakage-weighted area %.17g <> plain area %.17g"
        (Netlist.total_leakage_area nl lib)
        (Netlist.total_area nl lib))

(* (d) the assignment is a pure function of the netlist: bit-identical
   report and per-gate Vt classes at 1 and 4 pool domains *)
let () =
  Prop.register ~max_size:6 ~cases:40 ~name:"vt.deterministic_across_domains"
    spine_and_slack (fun (sp, factor) ->
      let lib = C.library Tech.cmos025 in
      let run domains =
        let nl, _ = C.build_spine Tech.cmos025 sp in
        let saved = Pool.default_size () in
        Fun.protect
          ~finally:(fun () -> Pool.set_default_size saved)
          (fun () ->
            Pool.set_default_size domains;
            let timing = Timing.analyze ~lib nl in
            let tc = factor *. Timing.critical_delay timing in
            let r = Vt_assign.run ~lib ~tc ~timing nl in
            let vts =
              List.map (fun id -> Vt.to_int (Netlist.vt_of nl id))
                (Netlist.gate_ids nl)
            in
            (r, vts))
      in
      let r1, vts1 = run 1 in
      let r4, vts4 = run 4 in
      require (vts1 = vts4) "Vt assignment differs between 1 and 4 domains";
      requiref
        (r1.Vt_assign.leakage_after = r4.Vt_assign.leakage_after
        && r1.Vt_assign.accepted = r4.Vt_assign.accepted
        && r1.Vt_assign.rejected = r4.Vt_assign.rejected
        && r1.Vt_assign.rounds = r4.Vt_assign.rounds)
        "report differs between domain counts: %d/%d vs %d/%d swaps"
        r1.Vt_assign.accepted r1.Vt_assign.rejected r4.Vt_assign.accepted
        r4.Vt_assign.rejected)

(* (e) the vt.swap fault point is contained: a deterministic Degraded
   outcome whose netlist keeps the pre-pass assignment and sizing *)
let () =
  Prop.register ~max_size:6 ~name:"fault.vt_swap_contained"
    (Gen.pair spine_and_slack Gen.int64)
    (fun ((sp, factor), seed) ->
      let nl, _ = C.build_spine Tech.cmos025 sp in
      let lib = C.library Tech.cmos025 in
      let cin0 =
        List.map (fun id -> (Netlist.node nl id).Netlist.cin)
          (Netlist.gate_ids nl)
      in
      let t0 = Timing.critical_delay (Timing.analyze ~lib nl) in
      let tc = factor *. t0 in
      match
        Fault.with_spec
          (Printf.sprintf "vt.swap,seed=%Ld" seed)
          (fun () -> Flow.optimize_o ~vt_assign:true ~max_rounds:3 ~lib ~tc nl)
      with
      | Outcome.Failed diag ->
        Prop.failf "vt.swap escalated to Failed: %s" (Diag.one_line diag)
      | Outcome.Exact _ ->
        Prop.failf "vt.swap fired (prob 1) yet the run is Exact"
      | Outcome.Degraded (r, diags) ->
        require
          (has_code Diag.Fault_injected diags)
          "aborted vt pass left no fault-injected diagnostic";
        (match r.Flow.vt with
        | None -> Prop.failf "vt_assign:true returned no vt report"
        | Some v ->
          requiref (v.Vt_assign.accepted = 0)
            "aborted pass reports %d accepted swaps" v.Vt_assign.accepted;
          requiref (v.Vt_assign.leakage_after = v.Vt_assign.leakage_before)
            "aborted pass changed leakage: %.17g -> %.17g"
            v.Vt_assign.leakage_before v.Vt_assign.leakage_after);
        List.iter
          (fun id ->
            require
              (Netlist.vt_of nl id = Vt.Lvt)
              "aborted pass left a promoted gate behind")
          (Netlist.gate_ids nl);
        (* tc >= the initial delay, so the sizing loop is a no-op and the
           rewind trail is the whole story: sizes must be untouched *)
        let cin1 =
          List.map (fun id -> (Netlist.node nl id).Netlist.cin)
            (Netlist.gate_ids nl)
        in
        require (cin0 = cin1) "aborted vt pass modified the sizing")

let () = Prop.main ()
