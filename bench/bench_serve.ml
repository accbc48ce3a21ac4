(* BENCH_serve.json: throughput and latency of the multi-tenant job
   engine (Pops_serve.Engine).  Cache effectiveness is asserted as a
   ratio on the same host (warm >= 2x cold jobs/sec on the repeated
   workload), which holds regardless of absolute machine speed; the
   mixed workload's times:false result stream must not depend on the
   domain count. *)

open Harness
module Engine = Pops_serve.Engine
module Sjob = Pops_serve.Job

let mk_job ~seq ?(tenant = "default") ?(action = Sjob.Analyze) ?tc_ratio ?max_rounds
    text =
  { Sjob.seq; id = Printf.sprintf "job-%d" seq; tenant; source = Sjob.Inline text;
    action; tc_ps = None; tc_ratio; max_rounds; k_paths = None; vt_assign = false }

(* one engine window of jobs per run_batch call *)
let batches jobs =
  let w = Engine.default_config.Engine.window in
  Array.init
    ((List.length jobs + w - 1) / w)
    (fun b -> List.filteri (fun i _ -> i / w = b) jobs)

(* One pass over a workload, from the timed batches in job order.  A
   job's latency is the wall time of the run_batch call that returned
   it: submit to result, intake (where a cache miss parses) included. *)
type pass = { results : Sjob.result list; secs : float; latencies_ms : float array }

let pass_of (batches : Sjob.result list timed array) =
  let batches = Array.to_list batches in
  let per_job f = List.concat_map (fun m -> List.map (fun _ -> f m) m.value) batches in
  { results = List.concat_map (fun m -> m.value) batches;
    secs = List.fold_left (fun acc m -> acc +. (m.ns /. 1e9)) 0. batches;
    latencies_ms = Array.of_list (per_job (fun m -> m.ns /. 1e6)) }

(* parsed-netlist cache hits / (hits + misses) over the pass *)
let hit_rate p =
  let count v = List.length (List.filter (fun r -> r.Sjob.cache = v) p.results) in
  let h = count `Hit and m = count `Miss in
  if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)

let serve () =
  (* payloads: a mid-size generated circuit (parse-dominated analyze
     jobs) and the paper profile circuits for the optimize mix *)
  let gen_text =
    let path_gates = if !smoke then 300 else 2000 in
    let profile = Generator.make_profile ~name:"serve_gen" ~path_gates () in
    Bench_io.to_string (fst (Generator.generate tech profile))
  in
  let profile_text name =
    Bench_io.to_string (fst (circuit (Option.get (Profiles.find name))))
  in
  let fpd_text = profile_text "fpd" and c432_text = profile_text "c432" in
  let n_repeat = if !smoke then 8 else 48 and n_mix = if !smoke then 8 else 24 in
  let t = Table.create ~title:"serve - job engine throughput"
      [ ("workload", Table.Left); ("phase", Table.Left);
        ("jobs", Table.Right); ("domains", Table.Right);
        ("jobs/s", Table.Right); ("p50 ms", Table.Right);
        ("p95 ms", Table.Right); ("hit rate", Table.Right);
        ("speedup", Table.Right) ]
  in
  let record ~workload ~phase ~domains ?speedup ?(unmeasurable = false) p =
    let jobs = List.length p.results in
    let jps = float_of_int jobs /. p.secs in
    let p50 = Pops_util.Stats.percentile p.latencies_ms 50.
    and p95 = Pops_util.Stats.percentile p.latencies_ms 95. in
    emit "BENCH_serve.json"
      [ ("workload", str workload); ("phase", str phase); ("jobs", int jobs);
        ("domains", int domains); ("jobs_per_sec", num jps); ("p50_ms", num p50);
        ("p95_ms", num p95); ("hit_rate", num (hit_rate p)); ("speedup", opt speedup);
        ("unmeasurable", Json.Bool unmeasurable) ];
    Table.add_row t
      [ workload; phase; string_of_int jobs; string_of_int domains;
        Printf.sprintf "%.1f" jps; Printf.sprintf "%.2f" p50;
        Printf.sprintf "%.2f" p95; Printf.sprintf "%.0f%%" (100. *. hit_rate p);
        (match (speedup, unmeasurable) with
        | _, true -> "unmeasurable"
        | Some s, _ -> Printf.sprintf "%.2f" s
        | None, _ -> "-") ]
  in
  (* one thunk per batch; with [fresh], the first starts a new engine,
     so every timed round replays the same cache history *)
  let config = { Engine.default_config with Engine.times = false } in
  let engine = ref (Engine.create ~config tech) in
  let thunks ~fresh jobs =
    Array.mapi
      (fun i batch () ->
        if fresh && i = 0 then engine := Engine.create ~config tech;
        Engine.run_batch !engine batch)
      (batches jobs)
  in
  let rounds = if !smoke then 1 else 3 in
  (* --- cold vs warm: the same set of netlists submitted twice --------- *)
  (* each job carries a distinct variant of the generated circuit (a
     comment line, so the content hash differs but the netlist does
     not); pass 1 parses+validates every job (all misses), pass 2 over
     the same texts replays every cached parse (all hits) and pays only
     copy + STA.  Run at 1 domain so the ratio is a pure cache effect. *)
  let repeat_jobs base =
    List.init n_repeat (fun i ->
        mk_job ~seq:(base + i) (Printf.sprintf "# variant %d\n%s" i gen_text))
  in
  let cold_thunks = thunks ~fresh:true (repeat_jobs 0) in
  let n_cold = Array.length cold_thunks in
  let ambient = Pool.default_size () in
  Pool.set_default_size 1;
  let m =
    time ~rounds (Array.append cold_thunks (thunks ~fresh:false (repeat_jobs n_repeat)))
  in
  Pool.set_default_size ambient;
  let cold = pass_of (Array.sub m 0 n_cold)
  and warm = pass_of (Array.sub m n_cold (Array.length m - n_cold)) in
  record ~workload:"analyze_repeat" ~phase:"cold" ~domains:1 cold;
  record ~workload:"analyze_repeat" ~phase:"warm" ~domains:1 warm;
  let cache_ratio = cold.secs /. warm.secs in
  Printf.printf "warm/cold jobs-per-sec ratio = %.2fx (floor 2.0x)\n%!" cache_ratio;
  if cache_ratio < 2.0 then
    fail "serve: warm cache is only %.2fx cold jobs/sec (floor 2.0x)" cache_ratio;
  (* a cache hit must be semantically transparent: same payload modulo
     the seq/id bookkeeping and the hit/miss verdict itself *)
  let payload p =
    List.map
      (fun r ->
        Json.to_string
          (Sjob.to_json ~times:false { r with Sjob.seq = 0; id = "x"; cache = `None }))
      p.results
  in
  if payload cold <> payload warm then fail "serve: a cache hit changed a result payload";
  (* --- domain sweep on a mixed multi-tenant workload ------------------ *)
  (* analyze + optimize jobs over three tenants; the times:false result
     stream must be bit-identical at every domain count *)
  let mix_jobs =
    List.init n_mix (fun i ->
        let tenant = Printf.sprintf "tenant-%d" (i mod 3) in
        let optimize text =
          mk_job ~seq:i ~tenant ~action:Sjob.Optimize ~tc_ratio:0.9 ~max_rounds:3 text
        in
        match i mod 4 with
        | 0 -> optimize fpd_text
        | 1 -> mk_job ~seq:i ~tenant gen_text
        | 2 -> optimize c432_text
        | _ -> mk_job ~seq:i ~tenant c432_text)
  in
  let stream p =
    String.concat "\n"
      (List.map (fun r -> Json.to_string (Sjob.to_json ~times:false r)) p.results)
  in
  let mix = thunks ~fresh:true mix_jobs in
  List.iter
    (fun (a : _ at) ->
      record ~workload:"optimize_mix" ~phase:"-" ~domains:a.domains ?speedup:a.speedup
        ~unmeasurable:a.unmeasurable a.result)
    (sweep ~what:"serve optimize_mix" ~fingerprint:stream ~cost:(fun p -> p.secs)
       (fun () -> pass_of (time ~rounds mix)));
  Table.print t;
  Printf.printf
    "shape check: warm-cache repeated jobs clear the 2x jobs/sec floor\n\
     over cold (a host-independent ratio) and answer sooner; the mixed-\n\
     workload result stream is bit-identical at every domain count, with\n\
     speedup claims only on rows the host can measure.\n"
