(* Benchmark entry point: regenerates every table and figure of the paper's
   evaluation (Verle et al., DATE 2005) and the BENCH_*.json performance
   trajectories (docs/bench-format.md).

     dune exec bench/main.exe            # all experiments
     dune exec bench/main.exe fig2 table1
     dune exec bench/main.exe -- --list
     dune exec bench/main.exe -- --smoke     # every experiment, CI-sized
     dune exec bench/main.exe -- --measure   # bechamel timing of kernels

   Exits 1 when any check fails or an experiment name is unknown. *)

let () =
  Harness.main ~measure:Bench_sta.measure
    [
      ("fig1", Paper.fig1); ("fig2", Paper.fig2); ("fig3", Paper.fig3);
      ("fig4", Paper.fig4); ("table1", Paper.table1); ("table2", Paper.table2);
      ("table3", Paper.table3); ("fig6", Paper.fig6); ("fig8", Paper.fig8);
      ("table4", Paper.table4); ("ablation", Paper.ablation); ("flow", Paper.flow);
      ("margins", Paper.margins); ("sta_incr", Bench_sta.sta_incr);
      ("delay_kernel", Bench_kernel.delay_kernel); ("parallel", Bench_parallel.parallel);
      ("sta_scale", Bench_scale.sta_scale); ("flow_scale", Bench_flow.flow_scale);
      ("serve", Bench_serve.serve); ("vt", Bench_vt.vt);
    ]
