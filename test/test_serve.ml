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
module Session = Pops_serve.Session

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
    [ ""; "{"; {|{"a":}|}; "[1,]"; "{} trailing"; "nul"; {|"unterminated|} ];
  (* nesting is bounded: an over-deep line is an error, not a stack
     overflow, and is rejected at the first bracket past the bound *)
  (match Json.parse (String.make 10_000_000 '[') with
  | Error e -> Alcotest.(check string) "depth error" "byte 512: nesting deeper than 512" e
  | Ok _ -> Alcotest.fail "10M brackets parsed");
  let nested d = String.make d '[' ^ String.make d ']' in
  (match Json.parse (nested 512) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "512-deep array: %s" e);
  match Json.parse (nested 513) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "513-deep array parsed"

(* --- line framing --------------------------------------------------- *)

let show_line = function
  | Pops_serve.Session.Linebuf.Line l -> l
  | Pops_serve.Session.Linebuf.Oversize -> "<oversize>"

(* random chunk splits against a split_on_char oracle: every complete
   line comes out once, CR-trimmed, and the unterminated tail is the
   residue *)
let test_linebuf_chunks () =
  let module Linebuf = Pops_serve.Session.Linebuf in
  let rng = Pops_util.Rng.create 11L in
  let long = String.init 150_000 (fun i -> Char.chr (97 + (i mod 26))) in
  let lines =
    List.init 400 (fun i ->
        match i mod 7 with
        | 0 -> ""
        | 1 -> "crlf " ^ string_of_int i ^ "\r"
        | 2 when i = 100 -> long
        | _ -> String.make (Pops_util.Rng.int rng 300) 'x' ^ string_of_int i)
  in
  let text = String.concat "\n" lines ^ "\nunterminated tail" in
  let expect =
    match List.rev (String.split_on_char '\n' text) with
    | tail :: rev_lines ->
      let trim l =
        let n = String.length l in
        if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l
      in
      (List.rev_map trim rev_lines, tail)
    | [] -> assert false
  in
  for trial = 1 to 20 do
    let buf = Linebuf.create () in
    let got = ref [] in
    let pos = ref 0 in
    while !pos < String.length text do
      let n = min (String.length text - !pos) (1 + Pops_util.Rng.int rng 100_000) in
      Linebuf.push buf (Bytes.of_string (String.sub text !pos n)) n;
      pos := !pos + n;
      let rec drain () =
        match Linebuf.pop_line buf with
        | Some l ->
          got := show_line l :: !got;
          drain ()
        | None -> ()
      in
      drain ()
    done;
    Alcotest.(check (list string)) (Printf.sprintf "lines (trial %d)" trial) (fst expect)
      (List.rev !got);
    Alcotest.(check (option string)) "residue" (Some (snd expect))
      (Option.map show_line (Linebuf.pop_residue buf));
    Alcotest.(check (option string)) "drained" None
      (Option.map show_line (Linebuf.pop_residue buf))
  done

(* a line over the limit between two short ones, under random chunk
   splits: it pops as one [Oversize] whether it ended or not, its bytes
   are never kept, and the lines around it come out whole *)
let test_linebuf_oversize () =
  let module Linebuf = Pops_serve.Session.Linebuf in
  let rng = Pops_util.Rng.create 12L in
  let limit = 1000 in
  let cases =
    [ (String.make limit 'x', "\n", [ "first"; String.make limit 'x'; "last" ]);
      (String.make (limit - 1) 'x', "\r\n", [ "first"; String.make (limit - 1) 'x'; "last" ]);
      (String.make (limit + 1) 'x', "\n", [ "first"; "<oversize>"; "last" ]);
      (String.make limit 'x', "\r\n", [ "first"; "<oversize>"; "last" ]);
      (String.make (7 * limit) '{', "\n", [ "first"; "<oversize>"; "last" ]) ]
  in
  List.iter
    (fun (middle, eol, expect) ->
      for trial = 1 to 30 do
        let text = "first" ^ eol ^ middle ^ eol ^ "last" ^ eol in
        let buf = Linebuf.create ~limit () in
        let got = ref [] and pos = ref 0 in
        while !pos < String.length text do
          let n = min (String.length text - !pos) (1 + Pops_util.Rng.int rng (2 * limit)) in
          Linebuf.push buf (Bytes.of_string (String.sub text !pos n)) n;
          pos := !pos + n;
          let rec drain () =
            match Linebuf.pop_line buf with
            | Some l ->
              got := show_line l :: !got;
              drain ()
            | None -> ()
          in
          drain ()
        done;
        Alcotest.(check (list string))
          (Printf.sprintf "%d-byte line (trial %d)" (String.length middle) trial)
          expect (List.rev !got);
        Alcotest.(check (option string)) "no residue" None
          (Option.map show_line (Linebuf.pop_residue buf))
      done)
    cases;
  (* pushes that end right at the oversize line's newline, and a reused
     chunk buffer whose bytes past [n] are stale *)
  let buf = Linebuf.create ~limit () in
  let stale = Bytes.make 64 '\n' in
  let push_str str =
    Bytes.blit_string str 0 stale 0 (String.length str);
    Linebuf.push buf stale (String.length str)
  in
  push_str "first\n";
  let big = Bytes.of_string (String.make (limit + 1) 'z') in
  Linebuf.push buf big (Bytes.length big);
  let popped = ref [] in
  let drain () =
    let rec go () =
      match Linebuf.pop_line buf with
      | Some l ->
        popped := show_line l :: !popped;
        go ()
      | None -> ()
    in
    go ()
  in
  drain ();
  List.iter (fun str -> push_str str; drain ()) [ "zz"; "z\n"; "la"; "st\n" ];
  Alcotest.(check (list string)) "newline at a push's end"
    [ "first"; "<oversize>"; "last" ] (List.rev !popped);
  (* an oversize last line with no newline: answered once, no residue *)
  let buf = Linebuf.create ~limit () in
  let tail = Bytes.of_string ("first\n" ^ String.make (3 * limit) 'y') in
  Linebuf.push buf tail (Bytes.length tail);
  let first = Linebuf.pop_line buf in
  let second = Linebuf.pop_line buf in
  Alcotest.(check (list string)) "unterminated oversize" [ "first"; "<oversize>" ]
    (List.map show_line (List.filter_map Fun.id [ first; second ]));
  Alcotest.(check (option string)) "nothing after it" None
    (Option.map show_line (Linebuf.pop_line buf));
  Alcotest.(check (option string)) "no residue" None
    (Option.map show_line (Linebuf.pop_residue buf))

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
  expect_err {|[1,2]|};
  (* a present field of the wrong type or out of range names the field;
     an absent one takes its default *)
  List.iter
    (fun (field, value) ->
      let s = Printf.sprintf {|{"bench":"x",%S:%s}|} field value in
      match decode s with
      | Ok _ -> Alcotest.failf "expected decode error for %s" s
      | Error e ->
        let needle = Printf.sprintf "%S" field in
        let n = String.length needle in
        let rec names i =
          i + n <= String.length e && (String.sub e i n = needle || names (i + 1))
        in
        if not (names 0) then Alcotest.failf "error for %s does not name the field: %s" s e)
    [ ("tc_ratio", {|"0.5"|}); ("tc_ratio", "-1"); ("tc_ratio", "0");
      ("tc_ratio", "1e999"); ("tc_ps", {|"100"|}); ("tc_ps", "-320");
      ("k_paths", "2.5"); ("k_paths", "0"); ("k_paths", "-2"); ("k_paths", {|"3"|});
      ("max_rounds", "-1"); ("max_rounds", "1.5"); ("vt_assign", {|"yes"|});
      ("vt_assign", "1"); ("id", "7"); ("tenant", "null") ];
  match decode {|{"bench":"x","tc_ratio":0.5,"k_paths":1,"max_rounds":0,"vt_assign":true,"id":"a","tenant":"b"}|} with
  | Error e -> Alcotest.failf "in-range fields rejected: %s" e
  | Ok j ->
    Alcotest.(check bool) "fields kept" true
      (j.Job.tc_ratio = Some 0.5 && j.Job.k_paths = Some 1 && j.Job.max_rounds = Some 0
       && j.Job.vt_assign && j.Job.id = "a" && j.Job.tenant = "b")

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

(* a line one byte over the real limit, between two good ones, through
   the stdio loop over a file: one invalid result with a typed
   diagnostic in its sequence slot, the lines around it served as they
   are without it *)
let test_server_oversize () =
  let good id =
    Printf.sprintf {|{"id":"%s","bench":"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n","action":"analyze"}|} id
  in
  let fname = Filename.temp_file "pops_oversize_test" ".ndjson" in
  Out_channel.with_open_bin fname (fun oc ->
      output_string oc (good "a" ^ "\n");
      let chunk = String.make (1 lsl 20) 'x' in
      for _ = 1 to Session.in_limit / String.length chunk do
        output_string oc chunk
      done;
      output_string oc ("x\n" ^ good "b" ^ "\n"));
  let fd = Unix.openfile fname [ Unix.O_RDONLY ] 0 in
  let code, out =
    Fun.protect
      ~finally:(fun () ->
        Unix.close fd;
        Sys.remove fname)
      (fun () -> serve_fd ~summary:false fd)
  in
  let _, plain = serve_pipe ~summary:false (good "a" ^ "\n" ^ good "b" ^ "\n") in
  Alcotest.(check int) "worst exit: invalid" 2 code;
  match (String.split_on_char '\n' out, String.split_on_char '\n' plain) with
  | [ a; oversize; b; "" ], [ a'; b'; "" ] ->
    Alcotest.(check string) "line before" a' a;
    (* the same line, one sequence slot later *)
    let renumbered =
      match String.split_on_char ',' b' with
      | id :: tenant :: "\"seq\":1" :: rest -> String.concat "," (id :: tenant :: "\"seq\":2" :: rest)
      | _ -> Alcotest.failf "unexpected result line %s" b'
    in
    Alcotest.(check string) "line after" renumbered b;
    Alcotest.(check string) "oversize result"
      (Printf.sprintf
         {|{"id":"job-1","tenant":"default","seq":1,"status":"invalid","exit":2,"diags":["invalid-input (request): line longer than %d bytes, discarded unread"]}|}
         Session.in_limit)
      oversize
  | _ -> Alcotest.failf "unexpected result lines:\n%s" out

(* a line rejected at decode (an unknown field) between two good ones:
   the summary counts it with the jobs the engine ran *)
let test_server_summary_counts_decode_rejects () =
  let good = {|{"bench":"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n","action":"analyze"}|} in
  let bad = {|{"bench":"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n","action":"analyze","frob":1}|} in
  let code, out = serve_pipe ~summary:true (String.concat "\n" [ good; bad; good ] ^ "\n") in
  Alcotest.(check int) "worst exit: invalid" 2 code;
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' out)) with
  | summary :: results -> (
    Alcotest.(check int) "3 results" 3 (List.length results);
    match Json.parse summary with
    | Ok j ->
      let count k = Option.bind (Json.member k j) Json.to_int in
      Alcotest.(check (option int)) "jobs" (Some 3) (count "jobs");
      Alcotest.(check (option int)) "ok" (Some 2) (count "ok");
      Alcotest.(check (option int)) "invalid" (Some 1) (count "invalid")
    | Error e -> Alcotest.failf "bad summary %s: %s" summary e)
  | [] -> Alcotest.fail "no output"

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
          Alcotest.test_case "linebuf chunk splits" `Quick test_linebuf_chunks;
          Alcotest.test_case "linebuf oversize line" `Quick test_linebuf_oversize;
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
          Alcotest.test_case "oversize line" `Quick test_server_oversize;
          Alcotest.test_case "summary counts decode rejects" `Quick
            test_server_summary_counts_decode_rejects;
          Alcotest.test_case "multi-window pipe == file" `Quick
            test_server_multi_window;
        ] );
    ]
