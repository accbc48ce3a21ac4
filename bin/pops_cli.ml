(* pops — command-line driver for the POPS library.

   Subcommands mirror the tool flow of the paper:
     pops tmin       — delay bounds of a path (Section 3.1)
     pops size       — constant-sensitivity sizing to a constraint (3.2)
     pops flimit     — library characterisation (4.1, Table 2)
     pops protocol   — the full optimization protocol (Fig. 7)
     pops curve      — delay/area trade-off sweep (Fig. 6)
     pops circuit    — inspect a benchmark circuit (netlist, STA, power)
     pops simulate   — transient-simulate a sized path (HSPICE stand-in)
     pops flow       — netlist-level timing closure (Path Selection)
     pops bench-file — analyze / optimize an ISCAS .bench netlist file

   Paths come either from a benchmark circuit's critical spine
   (--circuit c432) or from an explicit gate list
   (--gates inv,nand2,inv --cout 60 --branch 5). *)

module Tech = Pops_process.Tech
module Gk = Pops_cell.Gate_kind
module Library = Pops_cell.Library
module Path = Pops_delay.Path
module Netlist = Pops_netlist.Netlist
module Paths = Pops_sta.Paths
module Timing = Pops_sta.Timing
module NPower = Pops_sta.Power
module Transient = Pops_spice.Transient
module Bounds = Pops_core.Bounds
module Sens = Pops_core.Sensitivity
module Buffers = Pops_core.Buffers
module Domains = Pops_core.Domains
module Tradeoff = Pops_core.Tradeoff
module Protocol = Pops_core.Protocol
module Power = Pops_core.Power
module Profiles = Pops_circuits.Profiles
module Table = Pops_util.Table
module Diag = Pops_robust.Diag
module Outcome = Pops_robust.Outcome

open Cmdliner

let tech = Tech.cmos025
let lib = Library.make tech

(* ------------------------------------------------------------------ *)
(* exit codes and diagnostics                                          *)
(* ------------------------------------------------------------------ *)

(* the documented contract (docs/robustness.md): 0 = success (possibly
   degraded), 1 = constraint unmet, 2 = invalid input, 3 = internal
   error.  Never a raw backtrace. *)
let exit_unmet = 1
let exit_invalid = 2
let exit_internal = 3

let exit_code_of_diag d =
  match Diag.classify d.Diag.code with
  | `Invalid_input -> exit_invalid
  | `Constraint -> exit_unmet
  | `Degradation -> 0
  | `Internal -> exit_internal

(* flush stdout first so diagnostics land after the output they follow
   when both streams go to the same terminal or cram capture *)
let report_diag d =
  flush stdout;
  prerr_endline ("pops: " ^ Diag.one_line d)

let report_degradations diags =
  List.iter
    (fun d -> if d.Diag.severity <> Diag.Info then report_diag d)
    diags

(* every command body runs under this guard: a typed diagnostic maps to
   its documented exit code, anything else is an internal error (3) *)
let guard f =
  match f () with
  | code -> code
  | exception Diag.Fatal d ->
    report_diag d;
    exit_code_of_diag d
  | exception e ->
    prerr_endline ("pops: internal error: " ^ Printexc.to_string e);
    exit_internal

(* ------------------------------------------------------------------ *)
(* path acquisition                                                    *)
(* ------------------------------------------------------------------ *)

let parse_kinds s =
  let names = String.split_on_char ',' s |> List.map String.trim in
  let kinds = List.map Gk.of_name names in
  if List.exists Option.is_none kinds then
    Error
      (Printf.sprintf "unknown gate in %S (known: %s)" s
         (String.concat ", " (List.map Gk.name Gk.all)))
  else Ok (List.map Option.get kinds)

let path_of_spec ~circuit ~gates ~cout ~branch =
  match (circuit, gates) with
  | Some name, None -> (
    match Profiles.find name with
    | None ->
      Error
        (Printf.sprintf "unknown circuit %S (known: %s)" name
           (String.concat ", " (List.map (fun p -> p.Profiles.name) Profiles.all)))
    | Some p ->
      let nl, spine = Profiles.circuit tech p in
      Ok ((Paths.extract ~lib nl spine).Paths.path, Printf.sprintf "critical path of %s" name))
  | None, Some s -> (
    match parse_kinds s with
    | Error e -> Error e
    | Ok kinds ->
      Ok
        ( Path.of_kinds ~lib ~branch ~c_out:cout kinds,
          Printf.sprintf "custom path [%s]" s ))
  | Some _, Some _ -> Error "give either --circuit or --gates, not both"
  | None, None -> Error "a path is required: --circuit <name> or --gates <list>"

let circuit_arg =
  Arg.(value & opt (some string) None & info [ "circuit"; "c" ] ~docv:"NAME"
         ~doc:"Benchmark circuit (Adder16, fpd, c432, ... c7552); uses its critical path.")

let gates_arg =
  Arg.(value & opt (some string) None & info [ "gates"; "g" ] ~docv:"KINDS"
         ~doc:"Comma-separated gate kinds for a custom path, e.g. inv,nand2,nor3,inv.")

let cout_arg =
  Arg.(value & opt float 60. & info [ "cout" ] ~docv:"FF"
         ~doc:"Terminal load of a custom path (fF).")

let branch_arg =
  Arg.(value & opt float 0. & info [ "branch" ] ~docv:"FF"
         ~doc:"Off-path branch load per stage of a custom path (fF).")

let tc_ratio_arg =
  Arg.(value & opt float 1.2 & info [ "tc-ratio" ] ~docv:"R"
         ~doc:"Delay constraint as a multiple of the path's Tmin.")

let tc_ps_arg =
  Arg.(value & opt (some float) None & info [ "tc" ] ~docv:"PS"
         ~doc:"Delay constraint in picoseconds (overrides --tc-ratio).")

let vt_assign_arg =
  Arg.(value & flag & info [ "vt-assign" ]
         ~doc:"After sizing, run the multi-Vt leakage pass: promote \
               off-critical gates to higher threshold classes while the \
               constraint stays met.")

let with_path f circuit gates cout branch =
  match path_of_spec ~circuit ~gates ~cout ~branch with
  | Error e ->
    prerr_endline ("pops: " ^ e);
    exit_invalid
  | Ok (path, label) -> guard (fun () -> f path label)

(* a constraint is a positive, finite ps value or ratio; anything else
   is invalid input (exit 2), as [Job.of_json] answers it on the serve
   side.  [k ()] runs the command. *)
let with_tc tc_ps tc_ratio k =
  let given = ("--tc-ratio", tc_ratio) :: Option.fold tc_ps ~none:[] ~some:(fun v -> [ ("--tc", v) ]) in
  match List.find_opt (fun (_, v) -> not (Float.is_finite v && v > 0.)) given with
  | Some (flag, v) ->
    prerr_endline (Printf.sprintf "pops: %s %g: must be a positive finite number" flag v);
    exit_invalid
  | None -> k ()

let resolve_tc path tc_ps tc_ratio =
  match tc_ps with
  | Some tc -> tc
  | None -> tc_ratio *. (Bounds.compute path).Bounds.tmin

(* ------------------------------------------------------------------ *)
(* tmin                                                                *)
(* ------------------------------------------------------------------ *)

let run_tmin check circuit gates cout branch =
  with_path
    (fun path label ->
      let b = Bounds.compute path in
      Printf.printf "%s: %d stages\n" label (Path.length path);
      Printf.printf "Tmax (all gates at minimum drive) = %.1f ps\n" b.Bounds.tmax;
      Printf.printf "Tmin (link-equation optimum)      = %.1f ps\n" b.Bounds.tmin;
      Printf.printf "area at Tmin                      = %.1f um\n"
        (Path.area path b.Bounds.sizing_tmin);
      let t = Table.create [ ("stage", Table.Right); ("gate", Table.Left);
                             ("cin (fF)", Table.Right); ("branch (fF)", Table.Right) ] in
      List.iteri
        (fun i kind ->
          Table.add_row t
            [ string_of_int i; Gk.name kind;
              Table.cell_f b.Bounds.sizing_tmin.(i);
              Table.cell_f path.Path.stages.(i).Path.branch ])
        (Path.stage_kinds path);
      Table.print t;
      if check then begin
        let ok =
          Bounds.verify_stationary ~beta:b.Bounds.beta_tmin path b.Bounds.sizing_tmin
        in
        Printf.printf "stationarity check: %s\n" (if ok then "PASS" else "FAIL");
        (* a non-stationary "optimum" is the solver's bug, not the user's *)
        if not ok then exit_internal else 0
      end
      else 0)
    circuit gates cout branch

let tmin_cmd =
  let check =
    Arg.(value & flag & info [ "check" ] ~doc:"Verify the optimum is stationary.")
  in
  Cmd.v (Cmd.info "tmin" ~doc:"Compute the delay bounds (Tmin, Tmax) of a path")
    Term.(const run_tmin $ check $ circuit_arg $ gates_arg $ cout_arg $ branch_arg)

(* ------------------------------------------------------------------ *)
(* size                                                                *)
(* ------------------------------------------------------------------ *)

let run_size snap tc_ps tc_ratio circuit gates cout branch =
  with_tc tc_ps tc_ratio @@ fun () ->
  with_path
    (fun path label ->
      let tc = resolve_tc path tc_ps tc_ratio in
      Printf.printf "%s: sizing for Tc = %.1f ps\n" label tc;
      match Sens.size_for_constraint path ~tc with
      | Error (`Infeasible tmin) ->
        Printf.printf
          "INFEASIBLE: Tc is below the minimum achievable delay (%.1f ps).\n\
           Use `pops protocol' to apply structure modification.\n"
          tmin;
        1
      | Ok r ->
        Printf.printf "met with delay = %.1f ps, area = %.1f um (a = %.4f ps/um)\n"
          r.Sens.delay r.Sens.area r.Sens.a;
        let sizing, code =
          if snap then begin
            let leg = Pops_core.Discrete.legalize ~lib path ~tc r.Sens.sizing in
            Printf.printf
              "grid-legalised: delay = %.1f ps, area = %.1f um (%d repair bumps)%s\n"
              leg.Pops_core.Discrete.delay leg.Pops_core.Discrete.area
              leg.Pops_core.Discrete.bumps
              (if leg.Pops_core.Discrete.met then "" else " - MISSED Tc");
            (leg.Pops_core.Discrete.sizing, if leg.Pops_core.Discrete.met then 0 else 1)
          end
          else (r.Sens.sizing, 0)
        in
        let power = Power.of_path path sizing in
        Printf.printf "switched capacitance %.1f fF, dynamic power %.2f uW @100MHz\n"
          power.Power.switched_cap power.Power.dynamic_uw;
        let t = Table.create [ ("stage", Table.Right); ("gate", Table.Left);
                               ("cin (fF)", Table.Right) ] in
        List.iteri
          (fun i kind ->
            Table.add_row t
              [ string_of_int i; Gk.name kind; Table.cell_f sizing.(i) ])
          (Path.stage_kinds path);
        Table.print t;
        code)
    circuit gates cout branch

let size_cmd =
  let snap =
    Arg.(value & flag & info [ "snap" ]
           ~doc:"Legalise the sizing onto the library's discrete drive grid.")
  in
  Cmd.v (Cmd.info "size" ~doc:"Size a path for a delay constraint at minimum area")
    Term.(const run_size $ snap $ tc_ps_arg $ tc_ratio_arg $ circuit_arg $ gates_arg
          $ cout_arg $ branch_arg)

(* ------------------------------------------------------------------ *)
(* flimit                                                              *)
(* ------------------------------------------------------------------ *)

let run_flimit driver =
  match Gk.of_name driver with
  | None ->
    prerr_endline ("pops: unknown driver gate " ^ driver);
    exit_invalid
  | Some driver ->
    let t = Table.create
        ~title:(Printf.sprintf "buffer-insertion fan-out limits (driver: %s)" (Gk.name driver))
        [ ("gate", Table.Left); ("Flimit", Table.Right) ] in
    List.iter
      (fun (gate, f) ->
        Table.add_row t
          [ Gk.name gate;
            (if Float.is_finite f then Table.cell_f ~decimals:1 f else "never") ])
      (Buffers.characterize_library ~lib ~driver
         [ Gk.Inv; Gk.Nand 2; Gk.Nand 3; Gk.Nand 4; Gk.Nor 2; Gk.Nor 3; Gk.Nor 4;
           Gk.Aoi21; Gk.Oai21 ]);
    Table.print t;
    0

let flimit_cmd =
  let driver =
    Arg.(value & opt string "inv" & info [ "driver" ] ~docv:"GATE"
           ~doc:"Gate driving the characterised cell.")
  in
  Cmd.v (Cmd.info "flimit" ~doc:"Characterise the library's buffer-insertion limits")
    Term.(const run_flimit $ driver)

(* ------------------------------------------------------------------ *)
(* protocol                                                            *)
(* ------------------------------------------------------------------ *)

let run_protocol tc_ps tc_ratio no_restructure circuit gates cout branch =
  with_tc tc_ps tc_ratio @@ fun () ->
  with_path
    (fun path label ->
      let tc = resolve_tc path tc_ps tc_ratio in
      let r = Protocol.run ~allow_restructure:(not no_restructure) ~lib ~tc path in
      Printf.printf "%s under Tc = %.1f ps\n" label tc;
      Format.printf "%a@." Protocol.pp_report r;
      List.iter
        (fun rw ->
          Printf.printf "  rewrite at stage %d: %s -> %s (+%d side inverters)\n"
            rw.Pops_core.Restructure.stage
            (Gk.name rw.Pops_core.Restructure.from_kind)
            (Gk.name rw.Pops_core.Restructure.to_kind)
            rw.Pops_core.Restructure.side_inverters)
        r.Protocol.rewrites;
      if r.Protocol.met then 0 else 1)
    circuit gates cout branch

let protocol_cmd =
  let no_restructure =
    Arg.(value & flag & info [ "no-restructure" ]
           ~doc:"Disable the De Morgan restructuring alternative.")
  in
  Cmd.v (Cmd.info "protocol" ~doc:"Run the full optimization protocol (Fig. 7)")
    Term.(const run_protocol $ tc_ps_arg $ tc_ratio_arg $ no_restructure
          $ circuit_arg $ gates_arg $ cout_arg $ branch_arg)

(* ------------------------------------------------------------------ *)
(* curve                                                               *)
(* ------------------------------------------------------------------ *)

let run_curve points circuit gates cout branch =
  with_path
    (fun path label ->
      let plain, buffered = Tradeoff.sizing_vs_buffering ~lib ~points path in
      Printf.printf "%s: delay/area fronts\n" label;
      let t = Table.create [ ("a (ps/um)", Table.Right); ("delay (ps)", Table.Right);
                             ("area sizing (um)", Table.Right);
                             ("area buffered (um)", Table.Right) ] in
      List.iter2
        (fun p b ->
          Table.add_row t
            [ Printf.sprintf "%.4f" p.Tradeoff.a;
              Table.cell_f ~decimals:1 p.Tradeoff.delay;
              Table.cell_f ~decimals:1 p.Tradeoff.area;
              Printf.sprintf "%.1f (d=%.0f)" b.Tradeoff.area b.Tradeoff.delay ])
        plain buffered;
      Table.print t;
      (match Tradeoff.crossover_delay plain buffered with
      | Some d -> Printf.printf "buffering pays below %.1f ps\n" d
      | None -> Printf.printf "buffering does not pay on this path\n");
      0)
    circuit gates cout branch

let curve_cmd =
  let points =
    Arg.(value & opt int 15 & info [ "points" ] ~docv:"N" ~doc:"Points per front.")
  in
  Cmd.v (Cmd.info "curve" ~doc:"Sweep the delay/area trade-off (Fig. 6)")
    Term.(const run_curve $ points $ circuit_arg $ gates_arg $ cout_arg $ branch_arg)

(* ------------------------------------------------------------------ *)
(* circuit                                                             *)
(* ------------------------------------------------------------------ *)

let run_circuit name k tc =
  match Profiles.find name with
  | None ->
    prerr_endline ("pops: unknown circuit " ^ name);
    exit_invalid
  | Some p ->
    guard @@ fun () ->
    let nl, spine = Profiles.circuit tech p in
    Format.printf "%a@." Netlist.pp_stats nl;
    let timing = Timing.analyze ~lib nl in
    Printf.printf "STA critical delay: %.1f ps (path of %d nodes)\n"
      (Timing.critical_delay timing)
      (List.length (Timing.critical_path timing));
    print_string
      (Pops_sta.Report.render_path ~lib nl timing (Timing.critical_path timing));
    (match tc with
    | Some tc -> print_string (Pops_sta.Report.endpoint_summary ~lib ~tc nl timing)
    | None -> ());
    Printf.printf "spine length: %d\n" (List.length spine);
    let power = NPower.analyze ~lib nl in
    Printf.printf "area %.1f um, dynamic power %.2f uW @100MHz\n"
      power.NPower.area power.NPower.dynamic_uw;
    let worst = Paths.k_worst ~k ~lib nl in
    let t = Table.create ~title:(Printf.sprintf "%d most critical paths" k)
        [ ("#", Table.Right); ("gates", Table.Right); ("delay (ps)", Table.Right) ] in
    List.iteri
      (fun i ex ->
        let sizing = Array.of_list (List.map (Netlist.cin nl) ex.Paths.nodes) in
        Table.add_row t
          [ string_of_int (i + 1);
            string_of_int (List.length ex.Paths.nodes);
            Table.cell_f ~decimals:1 (Path.delay_worst ex.Paths.path sizing) ])
      worst;
    Table.print t;
    0

let circuit_cmd =
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME"
           ~doc:"Benchmark circuit name.")
  in
  let k = Arg.(value & opt int 5 & info [ "k" ] ~doc:"How many paths to list.") in
  Cmd.v (Cmd.info "circuit" ~doc:"Inspect a benchmark circuit (netlist, STA, paths, power)")
    Term.(const run_circuit $ name_arg $ k $ tc_ps_arg)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let run_simulate at_tmin circuit gates cout branch =
  with_path
    (fun path label ->
      let sizing =
        if at_tmin then (Bounds.compute path).Bounds.sizing_tmin
        else Path.min_sizing path
      in
      let analytic = Path.delay_worst path sizing in
      let sim = Transient.simulate_path_worst path sizing in
      Printf.printf "%s (%s sizing)\n" label (if at_tmin then "Tmin" else "minimum");
      Printf.printf "analytic model : %.1f ps\n" analytic;
      Printf.printf "transient sim  : %.1f ps (ratio %.2f)\n" sim.Transient.total_delay
        (sim.Transient.total_delay /. analytic);
      let t = Table.create [ ("stage", Table.Right); ("sim delay (ps)", Table.Right);
                             ("sim transition (ps)", Table.Right) ] in
      Array.iteri
        (fun i d ->
          Table.add_row t
            [ string_of_int i; Table.cell_f ~decimals:1 d;
              Table.cell_f ~decimals:1 sim.Transient.stage_transitions.(i) ])
        sim.Transient.stage_delays;
      Table.print t;
      0)
    circuit gates cout branch

let simulate_cmd =
  let at_tmin =
    Arg.(value & flag & info [ "tmin" ] ~doc:"Simulate the Tmin sizing instead of minimum drive.")
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Transient-simulate a path (the HSPICE stand-in)")
    Term.(const run_simulate $ at_tmin $ circuit_arg $ gates_arg $ cout_arg $ branch_arg)

(* ------------------------------------------------------------------ *)
(* flow                                                                *)
(* ------------------------------------------------------------------ *)

let finish_flow outcome =
  match outcome with
  | Outcome.Failed d ->
    report_diag d;
    exit_code_of_diag d
  | Outcome.Exact r | Outcome.Degraded (r, _) ->
    report_degradations (Outcome.diags outcome);
    Format.printf "%a@." Pops_flow.Flow.pp_report r;
    List.iter
      (fun it ->
        Printf.printf "  round %d: %.1f ps, %s on a %d-gate path\n"
          it.Pops_flow.Flow.round it.Pops_flow.Flow.critical_delay
          (Protocol.strategy_to_string it.Pops_flow.Flow.strategy)
          it.Pops_flow.Flow.path_gates)
      r.Pops_flow.Flow.iterations;
    (match r.Pops_flow.Flow.outcome with
    | Pops_flow.Flow.Met -> 0
    | _ -> exit_unmet)

let run_flow name tc_ps tc_ratio rounds vt_assign =
  with_tc tc_ps tc_ratio @@ fun () ->
  match Profiles.find name with
  | None ->
    prerr_endline ("pops: unknown circuit " ^ name);
    exit_invalid
  | Some p ->
    guard @@ fun () ->
    let nl, _ = Profiles.circuit tech p in
    let d0 = Timing.critical_delay (Timing.analyze ~lib nl) in
    let tc = match tc_ps with Some tc -> tc | None -> tc_ratio *. d0 in
    Printf.printf "%s: STA critical delay %.1f ps, target Tc = %.1f ps\n" name d0 tc;
    finish_flow (Pops_flow.Flow.optimize_o ~max_rounds:rounds ~vt_assign ~lib ~tc nl)

let flow_cmd =
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME"
           ~doc:"Benchmark circuit name.")
  in
  let rounds =
    Arg.(value & opt int 20 & info [ "rounds" ] ~doc:"Iteration budget.")
  in
  let tc_ratio =
    Arg.(value & opt float 0.8 & info [ "tc-ratio" ] ~docv:"R"
           ~doc:"Target as a multiple of the initial STA critical delay.")
  in
  Cmd.v (Cmd.info "flow" ~doc:"Netlist-level timing closure (the Path Selection loop)")
    Term.(const run_flow $ name_arg $ tc_ps_arg $ tc_ratio $ rounds $ vt_assign_arg)

(* ------------------------------------------------------------------ *)
(* bench-file: work on ISCAS .bench netlists                           *)
(* ------------------------------------------------------------------ *)

let run_bench_file file do_flow tc_ps tc_ratio vt_assign out =
  with_tc tc_ps tc_ratio @@ fun () ->
  match Pops_netlist.Bench_io.parse_file_o tech file with
  | Outcome.Failed d ->
    report_diag d;
    (* a malformed .bench is invalid input whatever the code says *)
    max exit_invalid (exit_code_of_diag d)
  | (Outcome.Exact (nl, names) | Outcome.Degraded ((nl, names), _)) as parsed ->
    guard @@ fun () ->
    (* line-accurate .bench diagnostics from the validation pass (e.g.
       zero-fanout gates) go to stderr; they degrade quality, not
       correctness, so the run continues with exit 0 *)
    report_degradations (Outcome.diags parsed);
    Format.printf "%a@." Netlist.pp_stats nl;
    let d0 = Timing.critical_delay (Timing.analyze ~lib nl) in
    Printf.printf "STA critical delay: %.1f ps\n" d0;
    let code =
      if do_flow then begin
        let tc = match tc_ps with Some tc -> tc | None -> tc_ratio *. d0 in
        Printf.printf "optimizing to Tc = %.1f ps ...\n" tc;
        finish_flow
          (Pops_flow.Flow.optimize_o ~vt_assign
             ~name:(Pops_netlist.Bench_io.name_fn names) ~lib ~tc nl)
      end
      else 0
    in
    (match out with
    | Some path ->
      Pops_netlist.Bench_io.write_file ~names nl path;
      Printf.printf "wrote %s (with cin/wire annotations)\n" path
    | None -> ());
    code

let bench_file_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"ISCAS .bench netlist file.")
  in
  let do_flow =
    Arg.(value & flag & info [ "flow" ] ~doc:"Run the timing-closure flow on it.")
  in
  let tc_ratio =
    Arg.(value & opt float 0.8 & info [ "tc-ratio" ] ~docv:"R"
           ~doc:"Flow target as a multiple of the initial critical delay.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"Write the (optimized) netlist back in .bench syntax.")
  in
  Cmd.v (Cmd.info "bench-file" ~doc:"Analyze or optimize an ISCAS .bench netlist file")
    Term.(const run_bench_file $ file $ do_flow $ tc_ps_arg $ tc_ratio
          $ vt_assign_arg $ out)

(* ------------------------------------------------------------------ *)
(* serve / optimize: the multi-tenant NDJSON job engine                *)
(* ------------------------------------------------------------------ *)

module Engine = Pops_serve.Engine
module Server = Pops_serve.Server
module Session = Pops_serve.Session
module Listener = Pops_serve.Listener
module Sjson = Pops_serve.Json

let engine_config window tenant_sweeps job_sweeps job_wall_ms cache_cap no_times =
  {
    Engine.default_config with
    Engine.window;
    tenant_sweeps;
    job_sweeps;
    job_wall_ms;
    netlist_cache = cache_cap;
    times = not no_times;
  }

let window_arg =
  Arg.(value & opt int Engine.default_config.Engine.window
       & info [ "window" ] ~docv:"N"
           ~doc:"Maximum jobs fanned out concurrently per batch.")

let tenant_sweeps_arg =
  Arg.(value & opt (some int) None & info [ "tenant-sweeps" ] ~docv:"N"
         ~doc:"Aggregate solver-sweep budget per tenant; jobs beyond it are \
               rejected at admission.")

let job_sweeps_arg =
  Arg.(value & opt (some int) None & info [ "job-sweeps" ] ~docv:"N"
         ~doc:"Per-job solver-sweep cap (the flow degrades gracefully at the cap).")

let job_wall_ms_arg =
  Arg.(value & opt (some float) None & info [ "job-wall-ms" ] ~docv:"MS"
         ~doc:"Per-job wall-clock cap. Protects the server from pathological \
               inputs, at the cost of determinism.")

let cache_cap_arg =
  Arg.(value & opt int Engine.default_config.Engine.netlist_cache
       & info [ "cache" ] ~docv:"N"
           ~doc:"Parsed-netlist cache capacity (distinct netlist contents).")

let no_times_arg =
  Arg.(value & flag & info [ "no-times" ]
         ~doc:"Omit wall-clock fields from result lines, making the output a \
               pure function of the job stream (used by the test suites).")

let no_summary_arg =
  Arg.(value & flag & info [ "no-summary" ]
         ~doc:"Do not append the summary line at end of stream.")

let idle_timeout_arg =
  Arg.(value & opt (some float) None & info [ "idle-timeout" ] ~docv:"SECONDS"
         ~doc:"Close an idle stream/connection after this many seconds \
               without traffic (deadline-exceeded diagnostic; clean exit).")

let socket_arg =
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
         ~doc:"Listen on a Unix domain socket instead of stdio. A stale \
               socket file left by a killed server is cleaned up; a live \
               one is an error.")

let listen_arg =
  Arg.(value & opt (some string) None & info [ "listen" ] ~docv:"HOST:PORT"
         ~doc:"Listen on a TCP address instead of stdio (port 0 picks a \
               free port, reported on stderr).")

let queue_limit_arg =
  Arg.(value & opt int Session.default_config.Session.queue_limit
       & info [ "queue-limit" ] ~docv:"N"
           ~doc:"Per-session bound on decoded jobs waiting to run; further \
                 requests are shed with a typed $(i,overloaded) result \
                 carrying a retry_after_ms hint.")

let max_sessions_arg =
  Arg.(value & opt int Listener.default_config.Listener.max_sessions
       & info [ "max-sessions" ] ~docv:"N"
           ~doc:"Concurrent-connection cap; beyond it new connections wait \
                 in the kernel backlog (backpressure).")

let retry_after_ms_arg =
  Arg.(value & opt int Session.default_config.Session.retry_after_ms
       & info [ "retry-after-ms" ] ~docv:"MS"
           ~doc:"Retry hint carried by shed (overloaded) results.")

let parse_hostport s =
  match String.rindex_opt s ':' with
  | None -> Error (s ^ ": expected HOST:PORT")
  | Some i ->
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    (match int_of_string_opt port with
    | Some p when p >= 0 && p < 65536 -> Ok (host, p)
    | _ -> Error (port ^ ": not a port number"))

let run_listener engine ~listener_config address =
  match Listener.create ~config:listener_config ~log:report_diag engine address
  with
  | Error e ->
    prerr_endline ("pops: " ^ e);
    exit_invalid
  | Ok l ->
    (* a vanished client must surface as a classified write error on its
       own session, never as a process-killing SIGPIPE *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let drain = Sys.Signal_handle (fun _ -> Listener.request_drain l) in
    Sys.set_signal Sys.sigterm drain;
    Sys.set_signal Sys.sigint drain;
    Printf.eprintf "pops: listening on %s\n%!"
      (Listener.address_name (Listener.address l));
    Listener.run l

let run_serve window tenant_sweeps job_sweeps job_wall_ms cache_cap no_times
    no_summary socket listen idle_timeout queue_limit max_sessions
    retry_after_ms =
  guard @@ fun () ->
  let config =
    engine_config window tenant_sweeps job_sweeps job_wall_ms cache_cap no_times
  in
  let engine = Engine.create ~config tech in
  match (socket, listen) with
  | Some _, Some _ ->
    prerr_endline "pops: give --socket or --listen, not both";
    exit_invalid
  | None, None ->
    (* per-job failures are result lines, not server failures *)
    ignore
      (Server.serve engine ~summary:(not no_summary) ?idle_timeout
         ~log:report_diag Unix.stdin stdout);
    0
  | _ -> (
    let session =
      { Session.queue_limit; idle_timeout; retry_after_ms;
        summary = not no_summary }
    in
    let listener_config = { Listener.max_sessions; session } in
    let address =
      match (socket, listen) with
      | Some path, None -> Ok (Listener.Unix_socket path)
      | None, Some hp ->
        Result.map (fun (h, p) -> Listener.Tcp (h, p)) (parse_hostport hp)
      | _ -> assert false
    in
    match address with
    | Error e ->
      prerr_endline ("pops: " ^ e);
      exit_invalid
    | Ok address -> run_listener engine ~listener_config address)

let serve_cmd =
  let doc =
    "Serve optimization jobs from an NDJSON stream (stdio, Unix socket or TCP)"
  in
  Cmd.v (Cmd.info "serve" ~doc
           ~man:[ `S Manpage.s_description;
                  `P "Long-lived multi-tenant job engine: one JSON request per \
                      input line, one result per output line in submission \
                      order, batched across the domain pool with per-tenant \
                      budgets and cross-request netlist caching. With \
                      $(b,--socket) or $(b,--listen) it becomes a supervised \
                      listener: each connection is an isolated session with \
                      its own deadlines, bounded queue and summary line, and \
                      SIGTERM drains in-flight work before exiting 0. See \
                      docs/serving.md for the schema and the ops contract." ])
    Term.(const run_serve $ window_arg $ tenant_sweeps_arg $ job_sweeps_arg
          $ job_wall_ms_arg $ cache_cap_arg $ no_times_arg $ no_summary_arg
          $ socket_arg $ listen_arg $ idle_timeout_arg $ queue_limit_arg
          $ max_sessions_arg $ retry_after_ms_arg)

(* ------------------------------------------------------------------ *)
(* client: stream stdin to a listener and report the worst exit        *)
(* ------------------------------------------------------------------ *)

let exit_of_status_name = function
  | "ok" | "degraded" -> 0
  | "unmet" | "rejected" | "overloaded" -> 1
  | "invalid" -> 2
  | "failed" -> 3
  | _ -> 0

(* the per-line worst-exit bookkeeping mirrors Job.exit_of_status on
   the server side; the summary line's worst_exit field wins when
   present so a --no-times stream still exits faithfully *)
let client_line_exit line =
  match Sjson.parse line with
  | Error _ -> 0
  | Ok (Sjson.Obj fields) -> (
    match List.assoc_opt "summary" fields with
    | Some (Sjson.Bool true) -> (
      match List.assoc_opt "worst_exit" fields with
      | Some (Sjson.Num e) -> int_of_float e
      | _ -> 0)
    | _ -> (
      match List.assoc_opt "exit" fields with
      | Some (Sjson.Num e) -> int_of_float e
      | _ -> (
        match List.assoc_opt "status" fields with
        | Some (Sjson.Str s) -> exit_of_status_name s
        | _ -> 0)))
  | Ok _ -> 0

let run_client socket connect =
  guard @@ fun () ->
  let addr =
    match (socket, connect) with
    | Some path, None -> Ok (Unix.ADDR_UNIX path)
    | None, Some hp ->
      Result.bind (parse_hostport hp) (fun (host, port) ->
          match
            try Ok (Unix.inet_addr_of_string host)
            with Failure _ -> (
              match Unix.gethostbyname host with
              | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
                Error (host ^ ": unknown host")
              | h -> Ok h.Unix.h_addr_list.(0))
          with
          | Ok a -> Ok (Unix.ADDR_INET (a, port))
          | Error e -> Error e)
    | _ -> Error "give exactly one of --socket PATH or --connect HOST:PORT"
  in
  match addr with
  | Error e ->
    prerr_endline ("pops: " ^ e);
    exit_invalid
  | Ok addr -> (
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let fd =
      Unix.socket ~cloexec:true
        (Unix.domain_of_sockaddr addr)
        Unix.SOCK_STREAM 0
    in
    match Unix.connect fd addr with
    | exception Unix.Unix_error (e, _, _) ->
      prerr_endline ("pops: connect: " ^ Unix.error_message e);
      exit_invalid
    | () ->
      let input = In_channel.input_all stdin in
      let rec send pos =
        if pos < String.length input then
          send (pos + Unix.write_substring fd input pos (String.length input - pos))
      in
      send 0;
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let buf = Bytes.create 65536 in
      let acc = Buffer.create 4096 in
      let worst = ref 0 in
      let received = ref false in
      let rec pop_lines () =
        let s = Buffer.contents acc in
        match String.index_opt s '\n' with
        | None -> ()
        | Some i ->
          let line = String.sub s 0 i in
          Buffer.clear acc;
          Buffer.add_substring acc s (i + 1) (String.length s - i - 1);
          print_endline line;
          received := true;
          worst := max !worst (client_line_exit line);
          pop_lines ()
      in
      let rec recv () =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes acc buf 0 n;
          pop_lines ();
          recv ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv ()
        | exception Unix.Unix_error (e, _, _) ->
          prerr_endline ("pops: read: " ^ Unix.error_message e);
          worst := max !worst exit_internal
      in
      recv ();
      pop_lines ();
      if Buffer.length acc > 0 then begin
        received := true;
        print_endline (Buffer.contents acc)
      end;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      flush stdout;
      (* a session the server killed before answering anything (e.g. an
         injected write fault) must not look like success *)
      if (not !received) && String.trim input <> "" then begin
        prerr_endline "pops: connection closed with no response";
        exit_internal
      end
      else !worst)

let client_cmd =
  let socket =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Connect to a Unix domain socket listener.")
  in
  let connect =
    Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"HOST:PORT"
           ~doc:"Connect to a TCP listener.")
  in
  let doc = "Send an NDJSON job stream to a pops listener" in
  Cmd.v (Cmd.info "client" ~doc
           ~man:[ `S Manpage.s_description;
                  `P "Streams stdin to a $(b,pops serve --socket/--listen) \
                      server, prints the result lines, and exits with the \
                      worst per-job code (the same contract as $(b,pops \
                      optimize --jobs)). Used by the test suite and handy \
                      for scripted probes: echo '{\"action\":\"health\"}' | \
                      pops client --socket /run/pops.sock." ])
    Term.(const run_client $ socket $ connect)

(* one-shot mode: generate a scale benchmark circuit and close timing on
   it with the incremental flow — the full-chip loop without needing a
   job file or a netlist on disk *)
let run_optimize_generated gates shape name tc_ps tc_ratio rounds vt_assign =
  with_tc tc_ps tc_ratio @@ fun () ->
  guard @@ fun () ->
  let shape =
    match String.lowercase_ascii shape with
    | "grid" -> Pops_netlist.Generator.Grid
    | "spine" -> Pops_netlist.Generator.Spine
    | "iscas" -> Pops_netlist.Generator.Iscas
    | s ->
      prerr_endline ("pops: unknown shape " ^ s ^ " (grid, spine or iscas)");
      exit exit_invalid
  in
  let nl = Pops_netlist.Generator.generate_scale tech ~name ~gates ~shape in
  let d0 = Timing.critical_delay (Timing.analyze ~lib nl) in
  let tc = match tc_ps with Some tc -> tc | None -> tc_ratio *. d0 in
  Printf.printf
    "%s: %d gates (%s), STA critical delay %.1f ps, target Tc = %.1f ps\n" name
    (Netlist.gate_count nl)
    (Pops_netlist.Generator.scale_shape_name shape)
    d0 tc;
  finish_flow (Pops_flow.Flow.optimize_o ~max_rounds:rounds ~vt_assign ~lib ~tc nl)

let run_optimize jobs gates shape name tc_ps tc_ratio rounds vt_assign window
    tenant_sweeps job_sweeps job_wall_ms cache_cap no_times summary =
  match (jobs, gates) with
  | Some _, Some _ ->
    prerr_endline "pops: give either --jobs or --gates, not both";
    exit_invalid
  | None, None ->
    prerr_endline "pops: one of --jobs FILE or --gates N is required";
    exit_invalid
  | None, Some gates ->
    run_optimize_generated gates shape name tc_ps tc_ratio rounds vt_assign
  | Some jobs, None ->
    guard @@ fun () ->
    let config =
      engine_config window tenant_sweeps job_sweeps job_wall_ms cache_cap no_times
    in
    let engine = Engine.create ~config tech in
    let fd = Unix.openfile jobs [ Unix.O_RDONLY ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    Server.serve engine ~summary fd stdout

let optimize_cmd =
  let jobs =
    Arg.(value & opt (some file) None & info [ "jobs" ] ~docv:"FILE"
           ~doc:"NDJSON job file (one request object per line; blank and # \
                 lines are skipped).")
  in
  let gates =
    Arg.(value & opt (some int) None & info [ "gates" ] ~docv:"N"
           ~doc:"One-shot mode: generate an N-gate scale benchmark circuit \
                 and run the timing-closure flow on it.")
  in
  let shape =
    Arg.(value & opt string "iscas" & info [ "shape" ] ~docv:"SHAPE"
           ~doc:"Circuit shape for --gates: grid, spine or iscas.")
  in
  let gen_name =
    Arg.(value & opt string "cli" & info [ "name" ] ~docv:"NAME"
           ~doc:"Generator seed name for --gates (deterministic circuits).")
  in
  let tc_ratio =
    Arg.(value & opt float 0.8 & info [ "tc-ratio" ] ~docv:"R"
           ~doc:"One-shot flow target as a multiple of the initial critical \
                 delay.")
  in
  let rounds =
    Arg.(value & opt int 20 & info [ "rounds" ] ~doc:"One-shot iteration budget.")
  in
  let summary =
    Arg.(value & flag & info [ "summary" ]
           ~doc:"Append the cache/tenant summary line after the results.")
  in
  let doc =
    "Run a batch of jobs through the serve engine, or close timing on a \
     generated circuit (--gates)"
  in
  Cmd.v (Cmd.info "optimize" ~doc)
    Term.(const run_optimize $ jobs $ gates $ shape $ gen_name $ tc_ps_arg
          $ tc_ratio $ rounds $ vt_assign_arg $ window_arg $ tenant_sweeps_arg
          $ job_sweeps_arg $ job_wall_ms_arg $ cache_cap_arg $ no_times_arg
          $ summary)

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc = "POPS - low-power oriented CMOS circuit optimization (DATE 2005 reproduction)" in
  Cmd.group (Cmd.info "pops" ~version:"1.0.0" ~doc)
    [ tmin_cmd; size_cmd; flimit_cmd; protocol_cmd; curve_cmd; circuit_cmd;
      simulate_cmd; flow_cmd; bench_file_cmd; serve_cmd; client_cmd;
      optimize_cmd ]

let () = exit (Cmd.eval' main_cmd)
