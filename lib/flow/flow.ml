module Netlist = Pops_netlist.Netlist
module Transform = Pops_netlist.Transform
module Logic = Pops_netlist.Logic
module Timing = Pops_sta.Timing
module Paths = Pops_sta.Paths
module Path = Pops_delay.Path
module Bounds = Pops_core.Bounds
module Sens = Pops_core.Sensitivity
module Buffers = Pops_core.Buffers
module Protocol = Pops_core.Protocol
module Diag = Pops_robust.Diag
module Watch = Pops_robust.Watch
module Budget = Pops_robust.Budget

type outcome = Met | No_progress | Budget_exhausted

type iteration = {
  round : int;
  critical_delay : float;
  strategy : Protocol.strategy;
  path_gates : int;
}

type report = {
  outcome : outcome;
  initial_delay : float;
  final_delay : float;
  initial_area : float;
  final_area : float;
  iterations : iteration list;
  buffers_added : int;
  rewrites : int;
  stale_decisions : int;
  equivalence : (unit, string) result;
  protocol_ms : float;
  analysis_ms : float;
  loop_ms : float;
  vt : Vt_assign.report option;
}

(* One edit the loop applies to the netlist, its arguments resolved when
   it was made: the written size, the off-path consumers a shield takes
   over.  The log of them is the best-state bookkeeping: replaying a
   prefix onto the pre-flow copy rebuilds the state it led to, ids and
   all, because {!Netlist.alloc} hands ids out in order. *)
type edit =
  | Resize of int * float
  | Shield of { after : int; only : int list; cin1 : float; cin2 : float }
  | Pair of int
  | De_morgan of int

(* the one place an edit touches the netlist, live and on replay; false
   when a De Morgan rewrite declines, which changes nothing *)
let apply t = function
  | Resize (id, cin) ->
    Netlist.set_cin t id cin;
    true
  | Shield { after; only; cin1; cin2 } ->
    ignore (Transform.insert_buffer_for ~cin1 ~cin2 t ~after ~only);
    true
  | Pair after ->
    ignore (Transform.insert_buffer t ~after);
    true
  | De_morgan id -> Result.is_ok (Transform.de_morgan t id)

(* Map one path-level protocol decision back onto the netlist.  Sizing is
   a direct write-back through [size] (monotone, logged by the caller);
   structural moves go through [record] (apply and log) at the node the
   stage index points to.  After a structural change the stage indexing
   is stale, so the caller re-runs STA and sizes the fresh critical path
   on the next round. *)
let apply_decision ~record ~size t (nodes : int array) (r : Protocol.report) =
  let buffers = ref 0 and rewrites = ref 0 in
  if r.Protocol.strategy = Protocol.Sizing_only then
    size (Array.to_list nodes) r.Protocol.sizing
  else begin
    (* shields: dilute each recorded branch with an off-path pair sized
       by the path-level decision *)
    List.iter
      (fun (sh : Buffers.shield) ->
        let stage = sh.Buffers.stage in
        if stage < Array.length nodes - 1 then begin
          let node = nodes.(stage) in
          let next = nodes.(stage + 1) in
          let off_path =
            List.filter (fun c -> c <> next) (Netlist.fanouts t node)
          in
          if off_path <> [] then begin
            ignore
              (record
                 (Shield
                    { after = node; only = off_path; cin1 = sh.Buffers.b1;
                      cin2 = sh.Buffers.b2 }));
            buffers := !buffers + 2
          end
        end)
      r.Protocol.shields;
    (* series pairs: all consumers move behind the pair, matching the
       path-level semantics; the pair is sized on the next round *)
    List.iter
      (fun stage ->
        if stage < Array.length nodes then begin
          ignore (record (Pair nodes.(stage)));
          buffers := !buffers + 2
        end)
      r.Protocol.pairs;
    (* De Morgan rewrites.  A rewrite absorbs single-fanout fan-in
       inverters, so an earlier rewrite in this list can delete the node
       a later one points to — skip stages whose node is gone. *)
    List.iter
      (fun (rw : Pops_core.Restructure.rewrite) ->
        let stage = rw.Pops_core.Restructure.stage in
        if
          stage < Array.length nodes
          && Netlist.node_exists t nodes.(stage)
          && record (De_morgan nodes.(stage))
        then incr rewrites)
      r.Protocol.rewrites
  end;
  (!buffers, !rewrites)

(* Write-backs are snapped to a 2^-12 relative grid (~0.02%, far below
   any physical sizing precision): once a solver has converged on a
   gate, the next round's re-solve rewrites the same bits, the write-back
   skips the write, and the incremental re-time never hears about it —
   without the snap, sub-ULP solver churn re-dirties the full fan-out
   cone of every sized gate every round. *)
let quantize = Path.grid ~round:Float.round

(* the edit window handed to the bounded-path protocol and to the
   end-of-round re-size; see {!Pops_sta.Paths.k_worst_incr} *)
let max_cone = 48

(* Retarget the global endpoint constraint onto a bounded window of its
   critical path: the window meets its share when it gets faster by the
   endpoint's violation, i.e. its local constraint is its own delay
   plus the (negative) endpoint slack.  NaN-safe: returns [wd] (no
   speedup required) when the slack is undefined. *)
let window_tc ~slack wd = if Float.is_nan slack then wd else wd +. slack

(* size the current critical path's [phase] window for tc (best effort
   below the window's Tmin) *)
let size_critical ~size ~lib ~tc ~timing ~phase t =
  let d = Timing.critical_delay timing in
  let ex = Paths.critical ~timing ~max_cone ~phase ~lib t in
  let sizing_now = Array.of_list (List.map (Netlist.cin t) ex.Paths.nodes) in
  let wtc =
    window_tc ~slack:(tc -. d) (Path.delay_worst ex.Paths.path sizing_now)
  in
  let sizing =
    match Sens.size_for_constraint ex.Paths.path ~tc:wtc with
    | Ok r -> r.Sens.sizing
    | Error (`Infeasible _) ->
      let _, x, _ = Sens.minimum_delay ex.Paths.path in
      x
  in
  size ex.Paths.nodes sizing

let optimize ?budget ?(max_rounds = 20) ?(k_paths = 3) ?(vt_assign = false) ~lib ~tc t =
  let ref_nl = Netlist.copy t in
  let t_loop = Unix.gettimeofday () in
  (* The analysis portion of the loop — building or updating
     timing/slacks/selection and reading the critical delay — bracketed
     directly, so the report can separate it from solver time and from
     bookkeeping (the edit log, the rewind), which a
     loop-minus-protocol subtraction would misattribute. *)
  let analysis_ms = ref 0. in
  let in_analysis f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    analysis_ms := !analysis_ms +. (1000. *. (Unix.gettimeofday () -. t0));
    r
  in
  (* one persistent analysis for the whole run: every round
     re-propagates only the touched fan-out cone forward (Timing.update),
     then ranks the endpoints (Paths.k_worst_incr), with required times
     swept only behind the nodes whose slack is read *)
  let timing = in_analysis (fun () -> Timing.analyze ~lib t) in
  let slacks = in_analysis (fun () -> Timing.slacks_make timing ~tc) in
  let sel = Paths.incr_make t slacks in
  let initial_delay = Timing.critical_delay timing in
  let initial_area = Netlist.total_area t lib in
  (* structural surgery is speculative: a De Morgan rewrite or shield can
     overshoot and the remaining rounds may never win the delay back.
     Track the best state seen so the run can rewind instead of returning
     something worse than it ever had.  The best state is a prefix of the
     edit log (newest first), replayed onto the reference copy the
     equivalence check keeps anyway: no copy per improving round. *)
  let log = ref [] and best = ref (0, initial_delay) in
  let record e = apply t e && (log := e :: !log; true) in
  (* monotone logged write-back: never shrink a gate below its current
     size, so cones sharing a gate cannot degrade each other across
     rounds; bitwise no-op writes are skipped (no dirty-log traffic) *)
  let size nodes sizing =
    List.iteri
      (fun i id ->
        let current = Netlist.cin t id in
        let v = Float.max current (quantize sizing.(i)) in
        if v <> current then ignore (record (Resize (id, v))))
      nodes
  in
  let buffers_added = ref 0 and rewrites_total = ref 0 in
  let stale_decisions = ref 0 in
  let iterations = ref [] in
  let protocol_ms = ref 0. in
  (* how many [max_cone] windows the longest cone selected last round
     has: the stall handler below walks the window phase through them
     before concluding the run is out of headroom *)
  let segments_avail = ref 1 in
  let rec loop round phase prev_delay =
    let d = in_analysis (fun () -> Timing.critical_delay timing) in
    if d < snd !best then best := (List.length !log, d);
    if d <= tc *. (1. +. 1e-6) +. 0.02 then Met
    else if round > max_rounds then Budget_exhausted
    else if
      match budget with
      | Some b when Budget.exhausted b ->
        Watch.emit (Budget.diag b);
        true
      | _ -> false
    then Budget_exhausted
    else begin
      (* a stalled round means the current windows are saturated (the
         monotone sizing has taken what they had to give): walk the
         window phase one segment upstream and keep going; only when
         every window of the longest path has been visited is the run
         genuinely out of progress *)
      let stalled = round > 1 && d >= prev_delay -. (0.001 *. prev_delay) in
      if stalled && phase + 1 >= !segments_avail then No_progress
      else begin
      let phase = if stalled then phase + 1 else phase in
      (* Phase 1 (sequential): select up to K worst gate-disjoint
         critical cones by endpoint slack.  Each [Paths.extracted]
         is an immutable snapshot — stage geometry, branch loads and the
         sizes current at the start of the round — fully decoupled from
         the mutable netlist; disjointness means the protocol runs
         cannot claim each other's gates. *)
      let worst =
        in_analysis (fun () ->
            Paths.k_worst_incr ~k:k_paths ~max_cone ~phase ~lib sel)
      in
      segments_avail :=
        List.fold_left
          (fun acc (ex : Paths.extracted) ->
            max acc ((ex.Paths.total_gates + max_cone - 1) / max_cone))
          1 worst;
      let snapshots =
        List.map
          (fun (ex : Paths.extracted) ->
            let sizing_now = Array.of_list (List.map (Netlist.cin t) ex.Paths.nodes) in
            (* the window's local constraint: absorb the (negative)
               slack at its tail gate — on the worst path that equals
               the endpoint violation this cone was selected for *)
            let tail = List.fold_left (fun _ id -> id) (-1) ex.Paths.nodes in
            (* analysis: above phase 0 the tail drives gates, and this
               read is where its required times get swept *)
            let slack = in_analysis (fun () -> Timing.node_slack slacks tail) in
            let wtc =
              window_tc ~slack (Path.delay_worst ex.Paths.path sizing_now)
            in
            (ex, sizing_now, wtc))
          worst
      in
      (* Phase 2 (parallel): run the protocol on every violating cone
         concurrently.  The workers only read their snapshots, never the
         netlist, so the decisions are a pure function of the round's
         starting state — bit-identical at any domain count. *)
      let t0 = Unix.gettimeofday () in
      (* contained fan-out: a protocol task that crashes on one cone
         degrades to a diagnostic and a skipped decision — the other
         cones' decisions still apply and the flow completes.  Per-task
         diagnostics re-emit in submission order below, keeping the
         run's report deterministic at any domain count. *)
      let slots =
        Pops_util.Pool.map_list_contained
          (fun ((ex : Paths.extracted), sizing_now, wtc) ->
            if wtc < Path.delay_worst ex.Paths.path sizing_now then
              Some (Protocol.run ~lib ~tc:wtc ex.Paths.path)
            else None)
          snapshots
      in
      let decisions =
        List.map
          (fun (result, diags) ->
            Watch.emit_all diags;
            match result with
            | Ok decision -> decision
            | Error d ->
              Watch.emit d;
              None)
          slots
      in
      protocol_ms := !protocol_ms +. (1000. *. (Unix.gettimeofday () -. t0));
      (match budget with Some b -> Budget.spend b 1 | None -> ());
      (* Phase 3 (sequential): apply the winners in submission order.
         The cones are gate-disjoint, so decisions cannot invalidate each
         other through sizing; a structural surgery can still delete a
         node another snapshot points to (e.g. an absorbed fan-in
         inverter off-cone), which makes that decision stale — counted
         and dropped, the end-of-round [size_critical] covers its
         endpoint. *)
      let structural_change = ref false in
      List.iter2
        (fun ((ex : Paths.extracted), _, _) decision ->
          match decision with
          | None -> ()
          | Some _ when not (List.for_all (Netlist.node_exists t) ex.Paths.nodes)
            -> incr stale_decisions
          | Some r ->
            let b, rw =
              apply_decision ~record ~size t (Array.of_list ex.Paths.nodes) r
            in
            buffers_added := !buffers_added + b;
            rewrites_total := !rewrites_total + rw;
            if b > 0 || rw > 0 then structural_change := true;
            iterations :=
              {
                round;
                critical_delay = d;
                strategy = r.Protocol.strategy;
                path_gates = List.length ex.Paths.nodes;
              }
              :: !iterations)
        snapshots decisions;
      (* after surgery the indices moved: re-size the fresh critical
         path.  Solver time, like the fan-out above — counted in
         protocol_ms, not analysis_ms. *)
      if !structural_change then begin
        let t0 = Unix.gettimeofday () in
        size_critical ~size ~lib ~tc ~timing ~phase t;
        protocol_ms := !protocol_ms +. (1000. *. (Unix.gettimeofday () -. t0))
      end;
      loop (round + 1) phase d
      end
    end
  in
  let outcome = loop 1 0 Float.infinity in
  (* rewind if the exploration ended worse than its best state: back to
     the reference, then the log's oldest edits up to the best mark, in
     order; the persistent analysis resyncs off the rewind's dirty
     entries *)
  let final_delay =
    let d = Timing.critical_delay timing in
    let keep, best_delay = !best in
    if d > best_delay then begin
      Netlist.restore t ~from:ref_nl;
      let newer = List.length !log - keep in
      List.iter
        (fun e -> ignore (apply t e))
        (List.rev (List.filteri (fun i _ -> i >= newer) !log));
      Timing.critical_delay timing
    end
    else d
  in
  (* the leakage pass runs on the settled netlist: after the rewind so
     a rolled-back surgery cannot strand accepted swaps, on the same
     persistent timing so every accept test is an incremental re-time *)
  let vt =
    if vt_assign then Some (Vt_assign.run ~lib ~tc ~timing t)
    else None
  in
  let loop_ms = 1000. *. (Unix.gettimeofday () -. t_loop) in
  {
    outcome;
    initial_delay;
    final_delay;
    initial_area;
    final_area = Netlist.total_area t lib;
    iterations = List.rev !iterations;
    buffers_added = !buffers_added;
    rewrites = !rewrites_total;
    stale_decisions = !stale_decisions;
    equivalence = Logic.equivalent ref_nl t;
    protocol_ms = !protocol_ms;
    analysis_ms = !analysis_ms;
    loop_ms;
    vt;
  }

(* The boundary entry point: validate first, unless a validation
   already passed at this revision (a parse validates what it builds; a
   malformed netlist is the caller's bug, not a degradation), then run
   the flow under a Watch collector so every ladder descent, contained
   crash and budget trip surfaces in the returned Outcome. *)
let optimize_o ?budget ?max_rounds ?k_paths ?vt_assign ?name ~lib ~tc t =
  let problems =
    if Netlist.validated t then []
    else
      List.filter
        (fun d -> d.Diag.severity = Diag.Error)
        (Netlist.validate_diags ?name t)
  in
  match problems with
  | d :: _ -> Pops_robust.Outcome.Failed d
  | [] -> (
    match
      Watch.collect (fun () ->
          optimize ?budget ?max_rounds ?k_paths ?vt_assign ~lib ~tc t)
    with
    | r, diags ->
      let diags =
        if r.outcome = Met then diags
        else
          diags
          @ [
              Diag.makef Diag.Constraint_infeasible
                "constraint %.3f ps not met: critical delay %.3f ps after \
                 optimization"
                tc r.final_delay;
            ]
      in
      Pops_robust.Outcome.make r diags
    | exception Diag.Fatal d -> Pops_robust.Outcome.Failed d
    | exception e ->
      Pops_robust.Outcome.Failed
        (Diag.makef Diag.Internal "Flow.optimize raised: %s"
           (Printexc.to_string e)))

let outcome_to_string = function
  | Met -> "met"
  | No_progress -> "no-progress"
  | Budget_exhausted -> "budget-exhausted"

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>flow: %s@ delay %.1f -> %.1f ps@ area %.1f -> %.1f um@ \
     %d rounds, %d buffer inverters, %d rewrites, %d stale dropped@ \
     equivalence: %s@]"
    (outcome_to_string r.outcome)
    r.initial_delay r.final_delay r.initial_area r.final_area
    (List.length r.iterations)
    r.buffers_added r.rewrites r.stale_decisions
    (match r.equivalence with Ok () -> "PASS" | Error m -> "FAIL: " ^ m);
  match r.vt with
  | None -> ()
  | Some v -> Format.fprintf ppf "@,%a" Vt_assign.pp_report v
