(* BENCH_sta.json: incremental event-driven re-timing vs from-scratch
   STA ([sta_incr]), and the Bechamel timings of the paper kernels
   ([--measure]).  The POPS loop re-times after every edit; [sta_incr]
   measures what the incremental engine saves on realistic edit traffic
   and checks the arrivals stay bit-identical to a cold analysis. *)

open Harness

let file = "BENCH_sta.json"

let check_bit_identical ~what nl timing =
  let fresh = Timing.analyze ~lib nl in
  let same id edge =
    let a = try Some (Timing.arrival timing id edge) with Not_found -> None in
    let b = try Some (Timing.arrival fresh id edge) with Not_found -> None in
    match (a, b) with
    | None, None -> true
    | Some a, Some b -> a.Timing.time = b.Timing.time && a.Timing.slope = b.Timing.slope
    | Some _, None | None, Some _ -> false
  in
  match
    List.find_opt
      (fun id -> not (same id Edge.Rising && same id Edge.Falling))
      (Netlist.topological_order nl)
  with
  | Some id -> fail "sta_incr: %s: node %d diverged from a cold analysis" what id
  | None -> ()

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
          Netlist.add_gate nl (Gk.Nand 2) [| !prev.(i); !prev.((i + 1) mod width) |])
    in
    prev := layer
  done;
  Array.iter (fun id -> Netlist.set_output nl id ~load:10.) !prev;
  nl

let sta_incr () =
  let t = Table.create
      ~title:"sta_incr - incremental Timing.update vs from-scratch Timing.analyze"
      [ ("circuit", Table.Left); ("gates", Table.Right);
        ("full (us)", Table.Right); ("incr set_cin (us)", Table.Right);
        ("speedup", Table.Right); ("trace edits", Table.Right);
        ("trace speedup", Table.Right) ]
  in
  let largest =
    List.fold_left
      (fun (b : Profiles.t) (p : Profiles.t) ->
        if b.Profiles.path_gates >= p.Profiles.path_gates then b else p)
      (List.hd Profiles.all) Profiles.all
  in
  let generated ~name ~path_gates =
    fst (Generator.generate tech (Generator.make_profile ~name ~path_gates ()))
  in
  let cases =
    [ (largest.Profiles.name,
       generated ~name:largest.Profiles.name ~path_gates:largest.Profiles.path_gates);
      ("spine1k", generated ~name:"incr1k" ~path_gates:340);
      ("grid1k", make_grid ~width:100 ~depth:10);
      ("grid4k", make_grid ~width:200 ~depth:20) ]
  in
  List.iter
    (fun (name, nl) ->
      let gates = Netlist.gate_count nl in
      let gate_arr = Array.of_list (Netlist.gate_ids nl) in
      (* single-gate resize, the flow's bread-and-butter edit: touch a
         different gate each iteration so caches cannot special-case *)
      let timing = Timing.analyze ~lib nl in
      let edits = 400 in
      let storm () =
        for i = 1 to edits do
          let g = gate_arr.(i * 37 mod Array.length gate_arr) in
          let cur = (Netlist.node nl g).Netlist.cin in
          Netlist.set_cin nl g
            (if cur < 3. *. tech.Tech.cmin then 4. *. tech.Tech.cmin else tech.Tech.cmin);
          Timing.update timing
        done
      in
      let m = time ~rounds:5 [| (fun () -> ignore (Timing.analyze ~lib nl)); storm |] in
      let full_ns = m.(0).ns and incr_ns = m.(1).ns /. float_of_int edits in
      check_bit_identical ~what:(name ^ " after set_cin storm") nl timing;
      let speedup = full_ns /. incr_ns in
      (* a Flow-style mixed trace: mostly resizes, some buffer surgery;
         the baseline re-analyzes from scratch after every edit.  Each
         run draws fresh edits (a replayed resize would be a no-op), the
         same on both sides. *)
      let trace_edits = 120 in
      let trace nl retime =
        let runs = ref 0 in
        fun () ->
        incr runs;
        let rng = Rng.of_string (Printf.sprintf "trace-%s-%d" name !runs) in
        for _ = 1 to trace_edits do
          let g = gate_arr.(Rng.int rng (Array.length gate_arr)) in
          if Netlist.node_exists nl g then begin
            if Rng.float rng 1. < 0.9 then
              Netlist.set_cin nl g (tech.Tech.cmin *. Rng.log_range rng 1. 30.)
            else ignore (Pops_netlist.Transform.insert_buffer nl ~after:g);
            retime ()
          end
        done
      in
      let nl_incr = Netlist.copy nl and nl_full = Netlist.copy nl in
      let timing_incr = Timing.analyze ~lib nl_incr in
      let m =
        time ~rounds:3
          [| trace nl_incr (fun () -> Timing.update timing_incr);
             trace nl_full (fun () -> ignore (Timing.analyze ~lib nl_full)) |]
      in
      check_bit_identical ~what:(name ^ " after mixed trace") nl_incr timing_incr;
      let trace_speedup = m.(1).ns /. m.(0).ns in
      let record ~kernel ?speedup ns_per_op =
        emit file
          [ ("kernel", str kernel); ("circuit", str name); ("gates", int gates);
            ("ns_per_op", num ns_per_op); ("speedup", opt speedup) ]
      in
      record ~kernel:"sta_full_analyze" full_ns;
      record ~kernel:"sta_incr_set_cin" ~speedup incr_ns;
      record ~kernel:"sta_incr_trace" ~speedup:trace_speedup
        (m.(0).ns /. float_of_int trace_edits);
      Table.add_row t
        [ name; string_of_int gates;
          Table.cell_f ~decimals:1 (full_ns /. 1000.);
          Table.cell_f ~decimals:2 (incr_ns /. 1000.);
          Printf.sprintf "%.0fx" speedup;
          string_of_int trace_edits;
          Printf.sprintf "%.1fx" trace_speedup ])
    cases;
  Table.print t;
  Printf.printf
    "shape check: on realistically shaped (wide, shallow) circuits the speedup\n\
     grows with size - the cone one edit dirties stays small while from-scratch\n\
     work is linear.  The spine profiles are the adversarial case: one deep\n\
     chain, so a random edit invalidates about half the design and incremental\n\
     degenerates gracefully to ~1x, never slower than the cone it must redo.\n\
     Every incremental state is checked bit-identical to a cold analysis.\n"

(* --- Bechamel measurement of the kernels ---------------------------- *)

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
    mk "fig2/tmin-solve" (fun () -> ignore (Sens.solve small_path));
    mk "fig3/sensitivity-sample" (fun () -> ignore (Sens.solve ~a:(-0.5) p));
    mk "fig4+table1/size-for-constraint" (fun () ->
        ignore (Sens.size_for_constraint small_path ~tc));
    mk "table2/flimit" (fun () ->
        (* the cache makes repeat queries O(1); measure the query path *)
        ignore (Buffers.flimit ~lib ~driver:Gk.Inv ~gate:(Gk.Nor 3) ()));
    mk "table3/global-buffers" (fun () ->
        ignore (Buffers.insert_global ~objective:`Tmin ~lib p));
    mk "fig6/tradeoff-point" (fun () -> ignore (Sens.solve ~a:(-1.) p));
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
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
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
        emit file
          [ ("kernel", str name); ("circuit", str "-"); ("gates", int 0);
            ("ns_per_op", num est) ];
        Table.add_row t [ name; cell ]
      | Some _ | None -> Table.add_row t [ name; "n/a" ])
    results;
  Table.print t
