(* BENCH_flow.json: the full-chip optimization loop at 10k/100k gates.
   Per shape x size: end-to-end optimize wall time, loop and per-round
   cost, the analysis portion (Flow.analysis_ms: the directly-bracketed
   re-time / critical-delay / slack-sweep / cone-selection time),
   allocation per gate, stale-decision counts, and a digest of the final
   netlist.  A re-run on the ambient pool must reproduce the 1-domain
   result bit for bit. *)

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
        ("words/gate", Table.Right) ]
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
          let optimize () =
            let target = Netlist.copy nl in
            (target, Flow.optimize ~lib ~tc target)
          in
          let fingerprint (m : _ timed) =
            let target, r = m.value in
            netlist_fingerprint target ^ "|" ^ report_fingerprint r
          in
          List.iter
            (fun (a : _ at) ->
              let m = a.result in
              let r = snd m.value in
              let rounds =
                List.fold_left
                  (fun acc (it : Flow.iteration) -> max acc it.Flow.round)
                  1 r.Flow.iterations
              in
              let per_round x = x /. float_of_int rounds in
              let words_per_gate = m.words /. float_of_int gates in
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
                  ("stale_decisions", int r.Flow.stale_decisions);
                  ("fingerprint", str (fingerprint m)) ];
              Table.add_row t
                [ shape; string_of_int gates; string_of_int a.domains;
                  string_of_int rounds;
                  Table.cell_f ~decimals:2 (per_round r.Flow.loop_ms);
                  Table.cell_f ~decimals:2 (per_round r.Flow.analysis_ms);
                  Table.cell_f ~decimals:2 words_per_gate ])
            (sweep ~counts ~what:(Printf.sprintf "flow_scale %s/%d" shape gates)
               ~fingerprint
               (fun () -> (time ~rounds:1 [| optimize |]).(0))))
        [ Generator.Grid; Generator.Iscas ])
    sizes;
  Table.print t;
  Printf.printf
    "shape check: every shape x size ends on the same netlist and report at\n\
     every pool size; the analysis portion of a round (re-timing, slack\n\
     sweep, selection) stays a small share of the round.\n"
