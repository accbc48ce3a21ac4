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
      let sum = Array.fold_left (fun acc (d, _) -> acc +. d) 0. (Path.delay_per_stage p x) in
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
      let g_fd = Numerics.gradient ~f:(fun x -> Path.delay p x) x in
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

(* Bounds.tmin is evaluated on a small polarity-weight grid, so it upper
   bounds the exact minimax by < 1%; every bracketing check carries that
   tolerance. *)
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
         negative a trades delay for area).  delay_of_a's worst-polarity
         composite is only checked against the absolute lower bound:
         on skewed corners the beta = 0.5 weighting makes it wiggle. *)
      let d_at a = Path.delay p (Sens.solve ~a ~beta:1. ~tol:1e-6 p).Sens.sizing in
      let d_hi = d_at a_hi and d_lo = d_at a_lo in
      requiref (d_lo >= d_hi -. (1e-3 *. d_hi) -. 0.05)
        "delay(a=%.4g) = %.6g < delay(a=%.4g) = %.6g: not monotone" a_lo d_lo a_hi d_hi;
      requiref (Sens.delay_of_a p a_lo >= (Bounds.tmin p /. grid_tol) -. 1e-9)
        "delay_of_a(%.4g) beat the path lower bound tmin = %.6g" a_lo (Bounds.tmin p))

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

let () =
  Prop.register ~name:"logic.packed_matches_scalar"
    (Gen.pair C.dag_spec Gen.int64)
    (fun (d, seed) ->
      let nl = C.build_dag d in
      let rng = Rng.create seed in
      let words = Array.init (Netlist.input_count nl) (fun _ -> Rng.int64 rng) in
      let packed = Logic.eval_packed nl words in
      for j = 0 to 63 do
        let vec = Array.map (fun w -> Int64.logand (Int64.shift_right_logical w j) 1L = 1L) words in
        let scalar = Logic.eval nl vec in
        List.iter2
          (fun (id, w) (id', b) ->
            require (id = id') "output order mismatch";
            if (Int64.logand (Int64.shift_right_logical w j) 1L = 1L) <> b then
              Prop.failf "output %d lane %d: packed and scalar evaluation disagree" id j)
          packed scalar
      done)

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
          let direct = Logic.eval_node nl vec id in
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
      while Transform.cleanup_inverter_pairs b > 0 && !rounds < 20 do
        incr rounds
      done;
      requiref (!rounds < 20) "cleanup_inverter_pairs did not reach a fixpoint in 20 rounds";
      require (Transform.cleanup_inverter_pairs b = 0) "fixpoint not stable";
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
   folded incrementally through an edit sequence must equal a fresh
   backward sweep of the final netlist, bit for bit (NaN-aware) *)
let () =
  Prop.register ~name:"sta.incremental_slack_equals_fresh"
    (Gen.pair C.dag_spec (Gen.list_sized ~min_len:1 C.edit))
    (fun (d, edits) ->
      let nl = C.build_dag d in
      let lib = C.library (Netlist.tech nl) in
      let t = Timing.analyze ~lib nl in
      let tc = 0.75 *. Timing.critical_delay t in
      let s = Timing.slacks_make t ~tc in
      List.iter
        (fun e ->
          C.apply_edit nl e;
          Timing.slacks_update s)
        edits;
      let fresh = Timing.slacks_make (Timing.analyze ~lib nl) ~tc in
      let same a b = a = b || (Float.is_nan a && Float.is_nan b) in
      let required_opt s id e =
        match Timing.required s id e with r -> r | exception Not_found -> Float.nan
      in
      List.iter
        (fun id ->
          List.iter
            (fun e ->
              let a = required_opt s id e and b = required_opt fresh id e in
              if not (same a b) then
                Prop.failf "node %d %s: incremental required %.17g <> fresh %.17g"
                  id (match e with Edge.Rising -> "rise" | Edge.Falling -> "fall")
                  a b)
            [ Edge.Rising; Edge.Falling ];
          let a = Timing.node_slack s id and b = Timing.node_slack fresh id in
          if not (same a b) then
            Prop.failf "node %d: incremental slack %.17g <> fresh %.17g" id a b)
        (Netlist.inputs nl @ Netlist.gate_ids nl))

let () =
  Prop.register ~name:"sta.critical_path_consistent" C.dag_spec (fun d ->
      let nl = C.build_dag d in
      let lib = C.library (Netlist.tech nl) in
      let t = Timing.analyze ~lib nl in
      let path = Timing.critical_path t in
      require (path <> []) "critical path is empty";
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
        worst)

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
   reference: same arithmetic grouping, same fan-in visit order, same
   keep-first tie break *)
let () =
  Prop.register ~cases:25 ~name:"sta.csr_sweep_equals_reference" C.dag_spec
    (fun d ->
      let nl = C.build_dag d in
      let lib = C.library (Netlist.tech nl) in
      let reference = Timing.analyze_reference ~lib nl in
      let t = Timing.analyze ~lib nl in
      requiref
        (Timing.critical_delay t = Timing.critical_delay reference)
        "critical delay %.17g <> reference %.17g" (Timing.critical_delay t)
        (Timing.critical_delay reference);
      List.iter
        (fun id ->
          List.iter
            (fun e ->
              let a = Timing.arrival t id e and b = Timing.arrival reference id e in
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
            (Vt.equal (Netlist.vt_of nl id) Vt.Lvt)
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
              (Vt.equal (Netlist.vt_of nl id) Vt.Lvt)
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
