module Netlist = Pops_netlist.Netlist
module Timing = Pops_sta.Timing
module Vt = Pops_process.Vt
module Tech = Pops_process.Tech
module Cell = Pops_cell.Cell
module Library = Pops_cell.Library
module Diag = Pops_robust.Diag
module Watch = Pops_robust.Watch
module Fault = Pops_robust.Fault

type report = {
  leakage_before : float;
  leakage_after : float;
  accepted : int;
  rejected : int;
  rounds : int;
  ms : float;
}

(* leakage of the whole netlist under its current Vt assignment, uW —
   the same expression Power.analyze reports, factored here so the
   before/after delta in the report matches the power report bitwise *)
let leakage_uw ~lib t =
  let tech = Netlist.tech t in
  tech.Tech.i_leak_per_um
  *. Netlist.total_leakage_area t lib
  *. tech.Tech.vdd /. 1000.

(* Leakage saved (uW) by promoting gate [id] one Vt step up, and the
   step itself.  Pure per-gate arithmetic over the current sizes —
   safe to fan out read-only over the pool. *)
let candidate ~lib t id =
  match Netlist.kind t id with
  | Netlist.Primary_input -> None
  | Netlist.Cell kind -> (
    let vt = Netlist.vt_of t id in
    match Vt.next vt with
    | None -> None
    | Some vt' ->
      let tech = Netlist.tech t in
      let cell = Library.find_vt lib kind vt in
      let cell' = Library.find_vt lib kind vt' in
      let a = Cell.area cell ~cin:(Netlist.cin t id) in
      let saving =
        tech.Tech.i_leak_per_um *. a
        *. (cell.Cell.leak_factor -. cell'.Cell.leak_factor)
        *. tech.Tech.vdd /. 1000.
      in
      Some (id, vt', saving))

(* Greedy multi-Vt assignment (see docs/multi-vt.md).

   Each round ranks every promotable gate by the leakage it would save
   if moved one Vt class up (LVT -> SVT -> HVT), then walks the ranking
   best-first: promote the gate, re-time incrementally, keep the swap
   iff the worst endpoint arrival still meets [tc], revert otherwise.
   Rounds repeat — a gate promoted to SVT becomes an SVT -> HVT
   candidate next round — until a full round accepts nothing.

   Determinism: the ranking is computed with a pure per-gate map (the
   pool only changes scheduling, not values), sorted with (saving
   descending, id ascending) as a total order, and the accept test is
   the bitwise STA verdict — so the final assignment is bit-identical
   at any domain count. *)
let run ?pool ~lib ~tc ~(timing : Timing.t) t =
  let t0 = Unix.gettimeofday () in
  let leakage_before = leakage_uw ~lib t in
  let accepted = ref 0 and rejected = ref 0 and rounds = ref 0 in
  (* (gate, class it held before its accepted promotion), newest first:
     the rewind trail for a contained abort *)
  let journal : (int * Vt.t) list ref = ref [] in
  let finish () =
    {
      leakage_before;
      leakage_after = leakage_uw ~lib t;
      accepted = !accepted;
      rejected = !rejected;
      rounds = !rounds;
      ms = 1000. *. (Unix.gettimeofday () -. t0);
    }
  in
  try
    let gates = Array.of_list (Netlist.gate_ids t) in
    let progressed = ref true in
    while !progressed do
      progressed := false;
      incr rounds;
      let ranked =
        Pops_util.Pool.parallel_map ?pool (candidate ~lib t) gates
        |> Array.to_list
        |> List.filter_map Fun.id
        |> List.sort (fun (ida, _, sa) (idb, _, sb) ->
               match compare sb sa with 0 -> compare ida idb | c -> c)
      in
      List.iter
        (fun (id, vt', _) ->
          Fault.inject "vt.swap";
          let prev = Netlist.vt_of t id in
          (* a structural surgery cannot run mid-pass, but an earlier
             accept this round may already have moved this gate;
             re-check the step is still the one the ranking priced *)
          if Vt.next prev = Some vt' then begin
            Netlist.set_vt t id vt';
            if Timing.critical_delay timing <= tc then begin
              journal := (id, prev) :: !journal;
              incr accepted;
              progressed := true
            end
            else begin
              Netlist.set_vt t id prev;
              incr rejected
            end
          end)
        ranked
    done;
    finish ()
  with Fault.Injected point ->
    (* contained degradation: rewind every accepted swap (newest first)
       so the caller keeps the pre-pass netlist — sizing was never
       touched — and report the abort as a warning, not a crash *)
    List.iter (fun (id, vt) -> Netlist.set_vt t id vt) !journal;
    ignore (Timing.critical_delay timing);
    accepted := 0;
    rejected := 0;
    journal := [];
    Watch.emit
      (Diag.make Diag.Fault_injected ~severity:Diag.Warning ~subject:point
         ~hint:"result keeps the pre-pass Vt assignment and sizing"
         "multi-Vt assignment aborted by fault injection; all swaps \
          rewound");
    finish ()

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>vt-assign: leakage %.3f -> %.3f uW (%.1f%% saved)@ %d swaps \
     accepted, %d rejected, %d rounds@]"
    r.leakage_before r.leakage_after
    (if r.leakage_before > 0. then
       100. *. (r.leakage_before -. r.leakage_after) /. r.leakage_before
     else 0.)
    r.accepted r.rejected r.rounds
