(* Tests for Pops_serve: the multi-tenant job engine.

   The contract under test (see lib/serve/engine.mli): with wall caps
   off, every result rendered with times:false is a pure function of
   the job stream — identical at any domain count and identical to
   running each job alone against a fresh engine; a cache hit is
   semantically transparent; tenant budgets starve only their own
   tenant; and an injected crash fails only its own job while the
   engine keeps serving. *)

module Tech = Pops_process.Tech
module Generator = Pops_netlist.Generator
module Bench_io = Pops_netlist.Bench_io
module Diag = Pops_robust.Diag
module Fault = Pops_robust.Fault
module Pool = Pops_util.Pool
module Json = Pops_serve.Json
module Job = Pops_serve.Job
module Engine = Pops_serve.Engine
module Server = Pops_serve.Server

let tech = Tech.cmos025

let with_domains n f =
  let old = Pool.default_size () in
  Pool.set_default_size n;
  Fun.protect ~finally:(fun () -> Pool.set_default_size old) f

(* --- json ----------------------------------------------------------- *)

let test_json_roundtrip () =
  let cases =
    [
      {|{"a":1,"b":[true,false,null],"c":"x\ny","d":-2.5}|};
      {|[]|}; {|{}|}; {|"A\"\\"|}; {|3|};
    ]
  in
  List.iter
    (fun s ->
      match Json.parse s with
      | Error e -> Alcotest.failf "parse %s: %s" s e
      | Ok v -> (
        (* print-parse-print is a fixpoint *)
        let printed = Json.to_string v in
        match Json.parse printed with
        | Error e -> Alcotest.failf "reparse %s: %s" printed e
        | Ok v' ->
          Alcotest.(check string) "fixpoint" printed (Json.to_string v')))
    cases

let test_json_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "expected parse error for %s" s
      | Error _ -> ())
    [ ""; "{"; {|{"a":}|}; "[1,]"; "{} trailing"; "nul"; {|"unterminated|} ]

(* --- job decoding --------------------------------------------------- *)

let decode ?(seq = 0) s =
  match Json.parse s with
  | Error e -> Alcotest.failf "json: %s" e
  | Ok j -> Job.of_json ~seq j

let test_job_defaults () =
  match decode {|{"bench":"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"}|} with
  | Error e -> Alcotest.failf "decode: %s" e
  | Ok j ->
    Alcotest.(check string) "id" "job-0" j.Job.id;
    Alcotest.(check string) "tenant" "default" j.Job.tenant;
    (match j.Job.action with
    | Job.Optimize -> ()
    | Job.Analyze | Job.Health ->
      Alcotest.fail "default action should be optimize")

let test_job_rejects () =
  let expect_err s =
    match decode s with
    | Ok _ -> Alcotest.failf "expected decode error for %s" s
    | Error _ -> ()
  in
  expect_err {|{"bench":"x","bench_file":"y"}|};
  (* both sources *)
  expect_err {|{"action":"analyze"}|};
  (* no source *)
  expect_err {|{"bench":"x","tcps":1}|};
  (* unknown field (typo of tc_ps) *)
  expect_err {|{"bench":"x","action":"optimise"}|};
  (* unknown action *)
  expect_err {|[1,2]|}

(* --- workloads ------------------------------------------------------ *)

(* the generator is seeded from the profile name, so distinct seeds
   give distinct netlists (and distinct cache keys) *)
let bench_text ~seed gates =
  let nl, _ =
    Generator.generate tech
      (Generator.make_profile
         ~name:(Printf.sprintf "serve_t%d" seed)
         ~path_gates:gates ())
  in
  Bench_io.to_string nl

let mk_job ~seq ?(tenant = "default") ?(action = Job.Analyze) ?tc_ratio
    ?max_rounds text =
  {
    Job.seq;
    id = Printf.sprintf "job-%d" seq;
    tenant;
    source = Job.Inline text;
    action;
    tc_ps = None;
    tc_ratio;
    max_rounds;
    k_paths = None;
    vt_assign = false;
  }

(* a small mixed stream over distinct netlists: analyze and optimize,
   three tenants, all cache misses so a fresh-engine-per-job run renders
   the same verdicts *)
let mixed_jobs () =
  List.init 9 (fun i ->
      let tenant = Printf.sprintf "t%d" (i mod 3) in
      let text = bench_text ~seed:(100 + i) 12 in
      if i mod 2 = 0 then
        mk_job ~seq:i ~tenant ~action:Job.Optimize ~tc_ratio:0.9 ~max_rounds:2
          text
      else mk_job ~seq:i ~tenant text)

let config = { Engine.default_config with Engine.times = false }
let render r = Json.to_string (Job.to_json ~times:false r)
let render_all rs = List.map render rs

(* --- determinism: concurrent == sequential -------------------------- *)

let test_concurrent_eq_sequential () =
  let jobs = mixed_jobs () in
  let batched domains =
    with_domains domains (fun () ->
        render_all (Engine.run_batch (Engine.create ~config tech) jobs))
  in
  let seq1 = batched 1 in
  let par4 = batched 4 in
  Alcotest.(check (list string)) "4 domains == 1 domain" seq1 par4;
  (* one job per fresh engine, like running each in its own process *)
  let alone =
    with_domains 1 (fun () ->
        List.map
          (fun j -> render (Engine.run_job (Engine.create ~config tech) j))
          jobs)
  in
  Alcotest.(check (list string)) "batched == one-per-engine" seq1 alone

let test_batch_split_invariant () =
  (* window 2 (many small batches) and window 64 (one batch) must render
     the same stream *)
  let jobs = mixed_jobs () in
  let run window =
    with_domains 2 (fun () ->
        let engine =
          Engine.create ~config:{ config with Engine.window } tech
        in
        let rec batches = function
          | [] -> []
          | items ->
            let rec take n = function
              | x :: rest when n < window ->
                let b, r = take (n + 1) rest in
                (x :: b, r)
              | rest -> ([], rest)
            in
            let b, rest = take 0 items in
            b :: batches rest
        in
        render_all (List.concat_map (Engine.run_batch engine) (batches jobs)))
  in
  Alcotest.(check (list string)) "window 2 == window 64" (run 64) (run 2)

(* --- cache transparency --------------------------------------------- *)

let strip_bookkeeping r = { r with Job.seq = 0; id = "x"; cache = `None }

let test_cache_hit_transparent () =
  let text = bench_text ~seed:7 15 in
  let jobs = List.init 4 (fun i -> mk_job ~seq:i text) in
  let results =
    with_domains 1 (fun () ->
        Engine.run_batch (Engine.create ~config tech) jobs)
  in
  (match results with
  | first :: rest ->
    Alcotest.(check bool) "first is a miss" true (first.Job.cache = `Miss);
    List.iter
      (fun r ->
        Alcotest.(check bool) "later are hits" true (r.Job.cache = `Hit);
        Alcotest.(check string) "hit payload == miss payload"
          (render (strip_bookkeeping first))
          (render (strip_bookkeeping r)))
      rest
  | [] -> Alcotest.fail "no results");
  (* optimize jobs mutate their netlist: a hit must hand out a private
     copy, so a second optimize of the same text reproduces the first *)
  let opt i = mk_job ~seq:i ~action:Job.Optimize ~tc_ratio:0.9 ~max_rounds:2 text in
  let results =
    with_domains 1 (fun () ->
        Engine.run_batch (Engine.create ~config tech) [ opt 0; opt 1 ])
  in
  match render_all (List.map strip_bookkeeping results) with
  | [ a; b ] -> Alcotest.(check string) "optimize replay" a b
  | _ -> Alcotest.fail "expected two results"

let test_invalid_bench () =
  let r =
    Engine.run_job (Engine.create ~config tech)
      (mk_job ~seq:0 "INPUT(a)\nwhat even is this\n")
  in
  Alcotest.(check bool) "invalid" true (r.Job.status = Job.Invalid);
  Alcotest.(check int) "exit 2" 2 (Job.exit_of_status r.Job.status)

(* --- tenant budgets ------------------------------------------------- *)

let test_tenant_budget_isolation () =
  let text = bench_text ~seed:3 15 in
  let config = { config with Engine.tenant_sweeps = Some 1 } in
  with_domains 1 (fun () ->
      let engine = Engine.create ~config tech in
      let opt ~seq ~tenant =
        mk_job ~seq ~tenant ~action:Job.Optimize ~tc_ratio:0.9 ~max_rounds:2
          text
      in
      (* batch 1 spends tenant a's budget... *)
      let r1 = Engine.run_batch engine [ opt ~seq:0 ~tenant:"a" ] in
      Alcotest.(check bool) "a's first job runs" true
        (match r1 with [ r ] -> r.Job.status <> Job.Rejected | _ -> false);
      (* ...so in batch 2 tenant a is rejected while tenant b runs *)
      match Engine.run_batch engine [ opt ~seq:1 ~tenant:"a"; opt ~seq:2 ~tenant:"b" ] with
      | [ ra; rb ] ->
        Alcotest.(check bool) "a rejected" true (ra.Job.status = Job.Rejected);
        Alcotest.(check int) "rejected exit 1" 1
          (Job.exit_of_status ra.Job.status);
        Alcotest.(check bool) "a carries the admission diag" true
          (List.exists
             (fun d -> d.Diag.code = Diag.Admission_rejected)
             ra.Job.diags);
        Alcotest.(check bool) "b unaffected" true (rb.Job.status <> Job.Rejected)
      | _ -> Alcotest.fail "expected two results")

(* --- fault injection ------------------------------------------------ *)

let test_fault_storm_contained () =
  (* analyze-only jobs: these never fan out inside the flow, so the
     engine's per-job tasks are the only pool tasks and a storm either
     kills a job whole or leaves it untouched.  (Optimize jobs degrade
     gracefully under nested injection instead — PR 5 behavior, covered
     by the replay test below.) *)
  let jobs =
    List.init 9 (fun i ->
        mk_job ~seq:i
          ~tenant:(Printf.sprintf "t%d" (i mod 3))
          (bench_text ~seed:(100 + i) 12))
  in
  let baseline =
    with_domains 1 (fun () ->
        render_all (Engine.run_batch (Engine.create ~config tech) jobs))
  in
  with_domains 1 (fun () ->
      let engine = Engine.create ~config tech in
      (* a probabilistic storm: some tasks crash, the rest must render
         exactly their no-fault results *)
      let stormed =
        Fault.with_spec "pool.raise@0.5,seed=11" (fun () ->
            Engine.run_batch engine jobs)
      in
      let failed, survived =
        List.partition (fun r -> r.Job.status = Job.Failed) stormed
      in
      Alcotest.(check bool) "storm kills some jobs" true (failed <> []);
      Alcotest.(check bool) "storm spares some jobs" true (survived <> []);
      List.iter
        (fun r ->
          Alcotest.(check string) "survivor matches no-fault run"
            (List.nth baseline r.Job.seq) (render r))
        survived;
      (* the engine keeps serving after the storm; the replay hits the
         netlist cache where the fresh baseline engine missed, so
         compare modulo the verdict annotation *)
      let after = Engine.run_batch engine jobs in
      let strip r = render { r with Job.cache = `None } in
      let baseline_stripped =
        with_domains 1 (fun () ->
            List.map strip (Engine.run_batch (Engine.create ~config tech) jobs))
      in
      Alcotest.(check (list string)) "engine serves after storm"
        baseline_stripped (List.map strip after))

let test_fault_storm_replay () =
  (* the same spec replays bit-identically on fresh engines (1 domain:
     probabilistic points are deterministic only there) *)
  let jobs = mixed_jobs () in
  let storm () =
    with_domains 1 (fun () ->
        Fault.with_spec "pool.raise@0.5,seed=11" (fun () ->
            render_all (Engine.run_batch (Engine.create ~config tech) jobs)))
  in
  Alcotest.(check (list string)) "deterministic replay" (storm ()) (storm ())

let test_fault_all_tasks () =
  (* prob-1 specs are deterministic at any domain count: every job fails,
     every failure is its own result line *)
  let jobs = mixed_jobs () in
  with_domains 4 (fun () ->
      let results =
        Fault.with_spec "pool.raise" (fun () ->
            Engine.run_batch (Engine.create ~config tech) jobs)
      in
      Alcotest.(check int) "one line per job" (List.length jobs)
        (List.length results);
      List.iter
        (fun r ->
          Alcotest.(check bool) "failed" true (r.Job.status = Job.Failed);
          Alcotest.(check int) "exit 3" 3 (Job.exit_of_status r.Job.status))
        results)

(* --- server line handling ------------------------------------------- *)

(* [Server.serve] over [fd] against a fresh engine: its return code and
   every byte it wrote *)
let serve_fd ~summary fd =
  let fname = Filename.temp_file "pops_serve_test" ".ndjson" in
  let oc = open_out_bin fname in
  let code = Server.serve (Engine.create ~config tech) ~summary fd oc in
  close_out oc;
  let out = In_channel.with_open_bin fname In_channel.input_all in
  Sys.remove fname;
  (code, out)

(* the input fits the pipe buffer, so write it all up front and close
   the write end before serving — no writer thread needed *)
let serve_pipe ~summary input =
  let r_in, w_in = Unix.pipe () in
  let bytes = Bytes.of_string input in
  let n = Bytes.length bytes in
  let rec write_all off =
    if off < n then write_all (off + Unix.write w_in bytes off (n - off))
  in
  write_all 0;
  Unix.close w_in;
  Fun.protect ~finally:(fun () -> Unix.close r_in) (fun () ->
      serve_fd ~summary r_in)

(* the same loop over a regular file, as [pops optimize --jobs] runs it *)
let serve_file ~summary input =
  let fname = Filename.temp_file "pops_jobs_test" ".ndjson" in
  Out_channel.with_open_bin fname (fun oc -> output_string oc input);
  let fd = Unix.openfile fname [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd;
      Sys.remove fname)
    (fun () -> serve_fd ~summary fd)

let test_server_stream () =
  (* end-to-end over a real pipe: mixed good, invalid and non-JSON
     lines; one result per line in order, then the summary *)
  let input =
    String.concat "\n"
      [
        {|{"bench":"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n","action":"analyze"}|};
        "# a comment";
        "";
        {|{"bench":"garbage","action":"analyze","id":"bad"}|};
        "not json";
      ]
    ^ "\n"
  in
  let code, out = serve_pipe ~summary:true input in
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
  Alcotest.(check int) "worst exit: invalid" 2 code;
  Alcotest.(check int) "3 results + summary" 4 (List.length lines);
  let statuses =
    List.filteri (fun i _ -> i < 3) lines
    |> List.map (fun l ->
           match Json.parse l with
           | Ok j ->
             Option.value ~default:"?"
               (Option.bind (Json.member "status" j) Json.to_str)
           | Error e -> Alcotest.failf "bad result line %s: %s" l e)
  in
  Alcotest.(check (list string)) "statuses in order"
    [ "ok"; "invalid"; "invalid" ] statuses;
  match Json.parse (List.nth lines 3) with
  | Ok j ->
    Alcotest.(check bool) "summary line" true
      (Json.member "summary" j <> None)
  | Error e -> Alcotest.failf "bad summary: %s" e

let test_server_multi_window () =
  (* 40 jobs, more than two engine windows: analyze (ok), optimize at an
     unreachable tc (unmet) and invalid lines, through the one stdio
     loop over a pipe and over a regular file.  No summary: its
     bounds_cache counters are process-wide, so the second run's differ *)
  let chain =
    Json.to_string
      (Json.Str "INPUT(a)\nOUTPUT(y)\nb = NOT(a)\nc = NOT(b)\ny = NOT(c)\n")
  in
  let line i =
    match i mod 5 with
    | 0 | 1 -> Printf.sprintf {|{"bench":%s,"action":"analyze","id":"ok%d"}|} chain i
    | 2 -> Printf.sprintf {|{"bench":%s,"tc_ps":1,"max_rounds":1,"id":"unmet%d"}|} chain i
    | 3 -> Printf.sprintf {|{"bench":"garbage","action":"analyze","id":"bad%d"}|} i
    | _ -> "not json"
  in
  let input = String.concat "\n" (List.init 40 line) ^ "\n" in
  Alcotest.(check bool) "longer than two windows" true
    (40 > 2 * config.Engine.window);
  let pipe_code, pipe_out = serve_pipe ~summary:false input in
  let file_code, file_out = serve_file ~summary:false input in
  Alcotest.(check int) "pipe: worst exit" 2 pipe_code;
  Alcotest.(check int) "file: worst exit" 2 file_code;
  Alcotest.(check string) "pipe and file streams byte-identical" pipe_out
    file_out;
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' pipe_out) in
  Alcotest.(check int) "40 results" 40 (List.length lines);
  let status l =
    match Json.parse l with
    | Ok j ->
      Option.value ~default:"?" (Option.bind (Json.member "status" j) Json.to_str)
    | Error e -> Alcotest.failf "bad result line %s: %s" l e
  in
  Alcotest.(check (list string)) "statuses in order"
    (List.init 40 (fun i ->
         match i mod 5 with 0 | 1 -> "ok" | 2 -> "unmet" | _ -> "invalid"))
    (List.map status lines)

(* -------------------------------------------------------------------- *)

let () = Fault.clear ()

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "errors" `Quick test_json_errors;
        ] );
      ( "job",
        [
          Alcotest.test_case "defaults" `Quick test_job_defaults;
          Alcotest.test_case "rejects" `Quick test_job_rejects;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "concurrent == sequential" `Quick
            test_concurrent_eq_sequential;
          Alcotest.test_case "batch split invariant" `Quick
            test_batch_split_invariant;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit transparent" `Quick
            test_cache_hit_transparent;
          Alcotest.test_case "invalid bench" `Quick test_invalid_bench;
        ] );
      ( "tenants",
        [
          Alcotest.test_case "budget isolation" `Quick
            test_tenant_budget_isolation;
        ] );
      ( "faults",
        [
          Alcotest.test_case "storm contained" `Quick
            test_fault_storm_contained;
          Alcotest.test_case "storm replay" `Quick test_fault_storm_replay;
          Alcotest.test_case "all tasks fail" `Quick test_fault_all_tasks;
        ] );
      ( "server",
        [
          Alcotest.test_case "stream" `Quick test_server_stream;
          Alcotest.test_case "multi-window pipe == file" `Quick
            test_server_multi_window;
        ] );
    ]
