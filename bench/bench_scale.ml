(* BENCH_scale.json: the full-chip trajectory — the arena/CSR core at
   10k/100k/1M gates.  Per size: the O(V+E) validation sweep, full CSR
   analyze vs the record-based test oracle, incremental update under
   resize and buffer-insertion traffic, the arena k-worst, and (up to 100k) the
   node store's cold snapshot, copy and restore, the flow's per-round
   endpoint work, logic equivalence and power on the snapshot, and (up
   to 100k, plus an inverter chain) the .bench parse with the text
   written either way round.  Minor-words-per-gate budgets guard the
   allocation-free inner loops: a regression fails the run, and so do
   an endpoint round over one cold analyze and an outputs-first parse
   over 2x the inputs-first one. *)

open Harness

(* The flow's endpoint work for one round, timed after each resize of
   the [sta_incr_set_cin] traffic (the resize and its arrival update
   stay outside the timed region): the slack sync, the ranked cone
   selection at phases 0 and 1 and the critical delay.  Row
   [sta_select_round]: the mean round.  A round must cost less than one
   cold analysis of the same netlist.  Its minor words stay under 60k
   per round (the probed candidate windows, whatever the size) plus 1
   per gate, which a boxed float per output trips on the iscas shape
   (98% outputs, scanned twice per round: +3.9 words/gate). *)
let select_round_budget gates = 1. +. (60_000. /. float_of_int gates)

let select_round ~edits ~resize ~timing nl =
  let tc = 0.9 *. Timing.critical_delay timing in
  let slacks = Timing.slacks_make timing ~tc in
  let sel = Paths.incr_make nl slacks in
  let round () =
    Timing.slacks_update slacks;
    List.iter
      (fun phase -> ignore (Paths.k_worst_incr ~k:3 ~max_cone:48 ~phase ~lib sel))
      [ 0; 1 ];
    ignore (Timing.critical_delay timing)
  in
  let secs = ref 0. and words = ref 0. in
  for i = 1 to edits do
    resize i;
    let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
    round ();
    secs := !secs +. (Unix.gettimeofday () -. t0);
    words := !words +. (Gc.minor_words () -. w0)
  done;
  (!secs *. 1e9 /. float_of_int edits, !words /. float_of_int edits)

(* The first [csr] of a netlist restored into a fresh one, which derives
   the order cold; the restore stays outside the timed region.  Best
   wall time and mean minor words over [rounds]. *)
let cold_snapshot ~rounds nl =
  let best = ref infinity and words = ref 0. in
  for _ = 1 to rounds do
    let fresh = Netlist.create tech in
    Netlist.restore fresh ~from:nl;
    let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
    ignore (Netlist.csr fresh);
    best := Float.min !best (Unix.gettimeofday () -. t0);
    words := !words +. (Gc.minor_words () -. w0)
  done;
  (!best *. 1e9, !words /. float_of_int rounds)

let sta_scale () =
  let sizes = if !smoke then [ 10_000 ] else [ 10_000; 100_000; 1_000_000 ] in
  (* minor words per gate, generously above current steady state (the
     analyze sweep and the arena enumeration allocate O(1) small values
     per node; the dense arrays land on the major heap).  A boxed float
     or a cons cell per node in an inner loop costs 2-3 words/gate and
     trips these immediately. *)
  let analyze_budget = 24. and k_worst_budget = 48. in
  (* the power pass allocates only the area folds' boxed cell areas (2
     words/gate each): a per-node list (8 words/gate) must trip it *)
  let power_budget = 8. in
  let t = Table.create
      ~title:"sta_scale - arena/CSR core across the size trajectory"
      [ ("kernel", Table.Left); ("gates", Table.Right);
        ("ms/op", Table.Right); ("words/gate", Table.Right); ("speedup", Table.Right) ]
  in
  let record ~kernel ~shape ~gates ?words ?budget ?speedup ns =
    (match (words, budget) with
    | Some w, Some b when w > b ->
      fail "sta_scale: %s at %d gates (%s): %.1f minor words/gate exceeds budget %.1f"
        kernel gates shape w b
    | _ -> ());
    emit "BENCH_scale.json"
      [ ("kernel", str kernel); ("shape", str shape); ("gates", int gates);
        ("domains", int 1); ("ns_per_op", num ns); ("minor_words_per_gate", opt words);
        ("speedup", opt speedup); ("unmeasurable", Json.Bool false) ];
    Table.add_row t
      [ kernel; string_of_int gates; Table.cell_f ~decimals:2 (ns /. 1e6);
        (match words with Some w -> Table.cell_f ~decimals:2 w | None -> "-");
        (match speedup with Some s -> Printf.sprintf "%.1fx" s | None -> "-") ]
  in
  (* the ISCAS-style spine+side shape rides along at the sizes where the
     record-based reference is still affordable; the 1M leg stays
     grid-only to keep the trajectory run bounded *)
  let cases =
    List.concat_map
      (fun gates ->
        if gates <= 100_000 then [ (gates, Generator.Grid); (gates, Generator.Iscas) ]
        else [ (gates, Generator.Grid) ])
      sizes
  in
  List.iter
    (fun (gates, shape_kind) ->
      let shape = Generator.scale_shape_name shape_kind in
      Printf.printf "generating %s/%d...\n%!" shape gates;
      let nl =
        Generator.generate_scale tech ~name:(Printf.sprintf "scale%d" gates) ~gates
          ~shape:shape_kind
      in
      let per_gate w = w /. float_of_int gates in
      let rounds = if gates > 200_000 then 3 else 7 in
      (* single-sweep O(V+E) structural validation *)
      let vd = (time ~rounds [| (fun () -> ignore (Netlist.validate_diags nl)) |]).(0) in
      record ~kernel:"validate_diags" ~shape ~gates vd.ns;
      (* the node store: a copy and a restore are one array copy per
         stored array, so each stays under 1 minor word per gate; a
         record, option or cons per node trips it *)
      if gates <= 100_000 then begin
        let ns, words = cold_snapshot ~rounds nl in
        record ~kernel:"netlist_snapshot_cold" ~shape ~gates ~words:(per_gate words) ns;
        ignore (Netlist.csr nl);
        let target = Netlist.copy nl in
        let m =
          time ~rounds
            [| (fun () -> ignore (Netlist.copy nl));
               (fun () -> Netlist.restore target ~from:nl) |]
        in
        List.iteri
          (fun i kernel ->
            let words = per_gate m.(i).words in
            if words >= 1. then
              fail "sta_scale: %s at %d gates (%s): %.2f minor words/gate, budget under 1"
                kernel gates shape words;
            record ~kernel ~shape ~gates ~words m.(i).ns)
          [ "netlist_copy"; "netlist_restore" ]
      end;
      (* full CSR analyze, interleaved with the record-based oracle of
         the test suites (test/timing_oracle) where it is still
         affordable (<= 100k) *)
      let analyze () = ignore (Timing.analyze ~lib nl) in
      let reference () = ignore (Timing_oracle.analyze ~lib nl) in
      let m =
        time ~rounds (if gates <= 100_000 then [| analyze; reference |] else [| analyze |])
      in
      let speedup =
        if Array.length m < 2 then None
        else begin
          let s = m.(1).ns /. m.(0).ns in
          record ~kernel:"sta_full_analyze_reference" ~shape ~gates m.(1).ns;
          Printf.printf "full analyze at %d gates: %.1fx the record-based oracle\n%!" gates s;
          Some s
        end
      in
      record ~kernel:"sta_full_analyze" ~shape ~gates ~words:(per_gate m.(0).words)
        ~budget:analyze_budget ?speedup m.(0).ns;
      (* incremental update under single-gate resize traffic *)
      let timing = Timing.analyze ~lib nl in
      let gate_arr = Array.of_list (Netlist.gate_ids nl) in
      let edits = if gates > 200_000 then 50 else 200 in
      let resize i =
        let g = gate_arr.(i * 9973 mod Array.length gate_arr) in
        let cur = Netlist.cin nl g in
        Netlist.set_cin nl g
          (if cur < 3. *. tech.Tech.cmin then 4. *. tech.Tech.cmin else tech.Tech.cmin);
        Timing.update timing
      in
      let storm () =
        for i = 1 to edits do
          resize i
        done
      in
      let incr = (time ~rounds:3 [| storm |]).(0) in
      record ~kernel:"sta_incr_set_cin" ~shape ~gates (incr.ns /. float_of_int edits);
      if gates <= 100_000 then begin
        let ns, words = select_round ~edits ~resize ~timing nl in
        if ns > m.(0).ns then
          fail "sta_scale: %s at %d gates: a round of endpoint work costs %.2fx a cold analyze (budget 1x)"
            shape gates (ns /. m.(0).ns);
        record ~kernel:"sta_select_round" ~shape ~gates ~words:(per_gate words)
          ~budget:(select_round_budget gates) ns
      end;
      (* incremental update after surgery: a buffer after a spread gate,
         on a copy so the rows below still measure [nl].  The update
         derives the snapshot anew, which must cost under 3 cold
         analyses *)
      let surgery_nl = Netlist.copy nl in
      let surgery_timing = Timing.analyze ~lib surgery_nl in
      let buffers = if gates > 200_000 then 10 else 20 and k = ref 0 in
      let surgery () =
        for _ = 1 to buffers do
          k := !k + 1;
          let g = gate_arr.(!k * 7919 mod Array.length gate_arr) in
          ignore (Pops_netlist.Transform.insert_buffer surgery_nl ~after:g);
          Timing.update surgery_timing
        done
      in
      let buf = (time ~rounds:3 [| surgery |]).(0) in
      let per_buffer = buf.ns /. float_of_int buffers in
      if per_buffer > 3. *. m.(0).ns then
        fail "sta_scale: %s at %d gates: a buffer insertion + update costs %.1fx a cold analyze (budget 3x)"
          shape gates (per_buffer /. m.(0).ns);
      record ~kernel:"sta_incr_buffer" ~shape ~gates per_buffer;
      (* arena k-worst with a persistent scratch: metric arrays, arena
         and queue are reused across calls, so steady-state minor words
         cover only the materialized winner paths *)
      let scratch = Paths.make_scratch () in
      let kw = (time ~rounds:3 [| (fun () -> Paths.k_worst ~scratch ~k:5 ~lib nl) |]).(0) in
      record ~kernel:"k_worst" ~shape ~gates ~words:(per_gate kw.words)
        ~budget:k_worst_budget kw.ns;
      (* logic simulation on the snapshot: equivalence against a copy
         (the warm-up run builds the copy's snapshot; a boxed word costs
         48 words/gate over its 8 sweeps of 2 netlists) and the power pass *)
      if gates <= 100_000 then begin
        let copy = Netlist.copy nl in
        let eq = (time ~rounds:3 [| (fun () -> Logic.equivalent nl copy) |]).(0) in
        if eq.value <> Ok () then fail "sta_scale: %s/%d differs from its copy" shape gates;
        record ~kernel:"logic_equivalent" ~shape ~gates ~words:(per_gate eq.words)
          ~budget:analyze_budget eq.ns;
        let pw = (time ~rounds [| (fun () -> ignore (Power.analyze ~lib nl)) |]).(0) in
        record ~kernel:"power_analyze" ~shape ~gates ~words:(per_gate pw.words)
          ~budget:power_budget pw.ns
      end)
    cases;
  (* intake: Bench_io.parse_o on a text written inputs-first (each
     definition before its uses, as to_string prints) and outputs-first
     (its lines reversed).  The parse is linear in either order, so
     outputs-first must cost under 2x inputs-first. *)
  let chain gates =
    let b = Buffer.create (16 * gates) in
    Buffer.add_string b "INPUT(a)\n";
    for i = 0 to gates - 1 do
      Printf.bprintf b "g%d = NOT(%s)\n" i (if i = 0 then "a" else Printf.sprintf "g%d" (i - 1))
    done;
    Printf.bprintf b "OUTPUT(g%d)\n" (gates - 1);
    Buffer.contents b
  in
  let parse_cases =
    List.concat_map
      (fun gates ->
        if gates > 100_000 then []
        else
          List.map
            (fun shape_kind ->
              ( Generator.scale_shape_name shape_kind,
                gates,
                fun () ->
                  Bench_io.to_string
                    (Generator.generate_scale tech ~name:(Printf.sprintf "scale%d" gates)
                       ~gates ~shape:shape_kind) ))
            [ Generator.Grid; Generator.Iscas ])
      sizes
    @ List.map
        (fun gates -> ("chain", gates, fun () -> chain gates))
        (if !smoke then [ 8_000 ] else [ 8_000; 100_000 ])
  in
  List.iter
    (fun (shape, gates, text) ->
      let text = text () in
      let reversed = String.concat "\n" (List.rev (String.split_on_char '\n' text)) in
      let parse text () =
        match Bench_io.parse_o tech text with
        | Pops_robust.Outcome.Failed d -> Error (Pops_robust.Diag.one_line d)
        | Pops_robust.Outcome.Exact (nl, _) | Pops_robust.Outcome.Degraded ((nl, _), _) ->
          Ok (Netlist.gate_count nl)
      in
      let m = time ~rounds:7 [| parse text; parse reversed |] in
      if m.(0).value <> m.(1).value || Result.is_error m.(0).value then
        fail "sta_scale: bench_parse %s/%d: the two orders parse differently" shape gates;
      let ratio = m.(1).ns /. m.(0).ns in
      if ratio > 2. then
        fail "sta_scale: bench_parse %s/%d: outputs-first costs %.2fx inputs-first (budget 2x)"
          shape gates ratio;
      List.iteri
        (fun k order ->
          emit "BENCH_scale.json"
            ([ ("kernel", str "bench_parse"); ("shape", str shape); ("order", str order);
               ("gates", int gates); ("domains", int 1); ("ns_per_op", num m.(k).ns);
               ("minor_words_per_gate", num (m.(k).words /. float_of_int gates));
               ("major_words_per_gate", num (m.(k).major /. float_of_int gates)) ]
            @ (if k = 1 then [ ("vs_inputs_first", num ratio) ] else [])
            @ [ ("unmeasurable", Json.Bool false) ]);
          Table.add_row t
            [ Printf.sprintf "bench_parse %s %s" shape order; string_of_int gates;
              Table.cell_f ~decimals:2 (m.(k).ns /. 1e6);
              Table.cell_f ~decimals:2 (m.(k).words /. float_of_int gates);
              (if k = 1 then Printf.sprintf "%.2fx" ratio else "-") ])
        [ "inputs-first"; "outputs-first" ])
    parse_cases;
  Table.print t;
  Printf.printf
    "shape check: analyze cost grows linearly in gate count while minor\n\
     words/gate stay flat (the inner loops allocate nothing per node);\n\
     incremental update stays orders of magnitude under a full analyze,\n\
     and under 3 full analyses after a buffer insertion;\n\
     a round of endpoint work stays under one full analyze;\n\
     logic equivalence and power stay within their word budgets;\n\
     a .bench text parses outputs-first within 2x of inputs-first.\n"
