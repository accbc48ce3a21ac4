(* BENCH_vt.json: the post-sizing multi-Vt leakage pass.  Per profile
   circuit: run the flow with --vt-assign at a Tc the circuit meets
   (1.25 x its initial STA delay), and record leakage saved, swap counts
   and the pass wall-clock.  Hard checks: the saving must clear 20% on
   every met circuit with the final delay still at or under Tc, and the
   final netlist (sizing + Vt classes) must be bit-identical at every
   pool size. *)

open Harness

let vt () =
  let circuits =
    if !smoke then [ "fpd"; "c432" ]
    else [ "fpd"; "Adder16"; "c432"; "c880"; "c1355"; "c1908" ]
  in
  let t =
    Table.create ~title:"multi-Vt leakage assignment (Tc = 1.25 x initial delay)"
      [ ("circuit", Table.Left); ("gates", Table.Right);
        ("leakage (uW)", Table.Right); ("saved", Table.Right);
        ("acc/rej", Table.Right); ("rounds", Table.Right);
        ("pass (ms)", Table.Right) ]
  in
  List.iter
    (fun name ->
      let base = fst (Profiles.circuit tech (Option.get (Profiles.find name))) in
      let tc = 1.25 *. Timing.critical_delay (Timing.analyze ~lib (Netlist.copy base)) in
      let run () =
        let nl = Netlist.copy base in
        let r = Flow.optimize ~vt_assign:true ~lib ~tc nl in
        (netlist_fingerprint nl, Timing.critical_delay (Timing.analyze ~lib nl), r)
      in
      let runs = sweep ~what:("vt " ^ name) ~fingerprint:(fun (fp, _, _) -> fp) run in
      let fp, final_delay, r = (List.hd runs).result in
      let v = Option.get r.Flow.vt in
      let saved = pct v.Vt_assign.leakage_after v.Vt_assign.leakage_before in
      if r.Flow.outcome = Flow.Met && final_delay > tc then
        fail "vt: %s un-met its constraint (%.1f > %.1f ps)" name final_delay tc;
      if r.Flow.outcome = Flow.Met && saved < 20. then
        fail "vt: %s saved only %.1f%% leakage (floor: 20%%)" name saved;
      let gates = Netlist.gate_count base in
      emit "BENCH_vt.json"
        [ ("circuit", str name); ("gates", int gates);
          ("leakage_before_uw", num v.Vt_assign.leakage_before);
          ("leakage_after_uw", num v.Vt_assign.leakage_after); ("saved_pct", num saved);
          ("accepted", int v.Vt_assign.accepted); ("rejected", int v.Vt_assign.rejected);
          ("rounds", int v.Vt_assign.rounds); ("ms", num v.Vt_assign.ms);
          ("fingerprint", str fp) ];
      Table.add_row t
        [ name; string_of_int gates;
          Printf.sprintf "%.3f -> %.3f" v.Vt_assign.leakage_before
            v.Vt_assign.leakage_after;
          Printf.sprintf "%.1f%%" saved;
          Printf.sprintf "%d/%d" v.Vt_assign.accepted v.Vt_assign.rejected;
          string_of_int v.Vt_assign.rounds;
          Table.cell_f ~decimals:1 v.Vt_assign.ms ])
    circuits;
  Table.print t;
  Printf.printf
    "shape check: every circuit that meets Tc after sizing clears the 20%%\n\
     leakage floor with slack still non-negative; the swap order is a pure\n\
     function of the netlist, so the assignment is bit-identical at any\n\
     domain count.\n"
