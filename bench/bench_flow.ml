(* BENCH_flow.json: the full-chip optimization loop at 10k/100k gates.
   Per shape x size: end-to-end optimize wall time, loop and per-round
   cost, the analysis portion (Flow.analysis_ms: the directly-bracketed
   re-time / critical-delay / slack-sweep / cone-selection time), minor
   and major allocation per gate, stale-decision counts, and a digest of
   the final netlist.  A re-run on the ambient pool must reproduce the
   1-domain result bit for bit.  One more row is the closure rate: how
   many of 24 generated 10k grids the default flow closes at 0.9x their
   delay. *)

open Harness

let flow_scale () =
  (* the POPS_DOMAINS=4 CI leg re-runs every flow at 4 domains *)
  let counts = List.sort_uniq compare [ 1; Pool.default_size () ] in
  let sizes = if !smoke then [ 10_000 ] else [ 10_000; 100_000 ] in
  let t = Table.create
      ~title:"flow_scale - slack-driven optimization loop"
      [ ("shape", Table.Left); ("gates", Table.Right);
        ("domains", Table.Right); ("rounds", Table.Right);
        ("ms/round", Table.Right); ("analysis ms/round", Table.Right);
        ("words/gate", Table.Right); ("major words/gate", Table.Right) ]
  in
  List.iter
    (fun gates ->
      List.iter
        (fun shape_kind ->
          let shape = Generator.scale_shape_name shape_kind in
          Printf.printf "generating %s/%d...\n%!" shape gates;
          let nl =
            Generator.generate_scale tech ~name:(Printf.sprintf "flow%d" gates) ~gates
              ~shape:shape_kind
          in
          let tc = 0.9 *. Timing.critical_delay (Timing.analyze ~lib nl) in
          (* the closure's major-heap words, promoted ones included *)
          let optimize () =
            let target = Netlist.copy nl in
            let major0 = (Gc.quick_stat ()).Gc.major_words in
            let r = Pops_robust.Outcome.get (Flow.optimize_o ~lib ~tc target) in
            (target, r, (Gc.quick_stat ()).Gc.major_words -. major0)
          in
          let fingerprint (m : _ timed) =
            let target, r, _ = m.value in
            netlist_fingerprint target ^ "|" ^ report_fingerprint r
          in
          List.iter
            (fun (a : _ at) ->
              let m = a.result in
              let _, r, major = m.value in
              let rounds =
                List.fold_left
                  (fun acc (it : Flow.iteration) -> max acc it.Flow.round)
                  1 r.Flow.iterations
              in
              let per_round x = x /. float_of_int rounds in
              let words_per_gate = m.words /. float_of_int gates in
              let major_per_gate = major /. float_of_int gates in
              if a.domains = 1 then
                Printf.printf "%s/%d: %d rounds, %s, %d stale\n%!" shape gates rounds
                  (Flow.outcome_to_string r.Flow.outcome) r.Flow.stale_decisions;
              emit "BENCH_flow.json"
                [ ("shape", str shape); ("gates", int gates); ("domains", int a.domains);
                  ("rounds", int rounds);
                  ("outcome", str (Flow.outcome_to_string r.Flow.outcome));
                  ("total_ms", num (m.ns /. 1e6)); ("loop_ms", num r.Flow.loop_ms);
                  ("protocol_ms", num r.Flow.protocol_ms);
                  ("ms_per_round", num (per_round r.Flow.loop_ms));
                  ("analysis_ms_per_round", num (per_round r.Flow.analysis_ms));
                  ("minor_words_per_gate", num words_per_gate);
                  ("major_words_per_gate", num major_per_gate);
                  ("stale_decisions", int r.Flow.stale_decisions);
                  ("fingerprint", str (fingerprint m)) ];
              Table.add_row t
                [ shape; string_of_int gates; string_of_int a.domains;
                  string_of_int rounds;
                  Table.cell_f ~decimals:2 (per_round r.Flow.loop_ms);
                  Table.cell_f ~decimals:2 (per_round r.Flow.analysis_ms);
                  Table.cell_f ~decimals:2 words_per_gate;
                  Table.cell_f ~decimals:2 major_per_gate ])
            (sweep ~counts ~what:(Printf.sprintf "flow_scale %s/%d" shape gates)
               ~fingerprint
               (fun () -> (time ~rounds:1 [| optimize |]).(0))))
        [ Generator.Grid; Generator.Iscas ])
    sizes;
  Table.print t;
  (* the closure rate: one netlist closing or stalling by a hair says
     little about the flow, so count over a fixed set of generated grids *)
  let names = List.init (if !smoke then 4 else 24) (fun i -> Printf.sprintf "g%d" (i + 1)) in
  let t0 = Unix.gettimeofday () in
  let ends =
    List.map
      (fun name ->
        let nl = Generator.generate_scale tech ~name ~gates:10_000 ~shape:Generator.Grid in
        let tc = 0.9 *. Timing.critical_delay (Timing.analyze ~lib nl) in
        let r = Pops_robust.Outcome.get (Flow.optimize_o ~lib ~tc nl) in
        (r.Flow.outcome = Flow.Met, r.Flow.final_delay /. tc))
      names
  in
  let met = List.length (List.filter fst ends) in
  let short = List.sort compare (List.filter_map (fun (m, x) -> if m then None else Some x) ends) in
  let median =
    match short with
    | [] -> None
    | l ->
      let n = List.length l in
      Some (0.5 *. (List.nth l ((n - 1) / 2) +. List.nth l (n / 2)))
  in
  emit "BENCH_flow.json"
    [ ("shape", str "grid"); ("gates", int 10_000); ("netlists", int (List.length names));
      ("met", int met); ("unmet_median_delay_over_tc", opt median);
      ("total_ms", num (1000. *. (Unix.gettimeofday () -. t0))) ];
  Printf.printf "closure rate: %d of %d grids g1..g%d met at 0.9x%s\n" met
    (List.length names) (List.length names)
    (match median with
    | None -> ""
    | Some x -> Printf.sprintf "; the others end at a median %.4f x tc" x);
  Printf.printf
    "shape check: every shape x size ends on the same netlist and report at\n\
     every pool size; the analysis portion of a round (re-timing, slack\n\
     sweep, selection) stays a small share of the round.\n"
