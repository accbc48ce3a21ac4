module Netlist = Pops_netlist.Netlist
module Bench_io = Pops_netlist.Bench_io
module Timing = Pops_sta.Timing
module NPower = Pops_sta.Power
module Flow = Pops_flow.Flow
module Bounds = Pops_core.Bounds
module Library = Pops_cell.Library
module Budget = Pops_robust.Budget
module Diag = Pops_robust.Diag
module Outcome = Pops_robust.Outcome
module Pool = Pops_util.Pool

type config = {
  window : int;
  tenant_sweeps : int option;
  job_sweeps : int option;
  job_wall_ms : float option;
  netlist_cache : int;
  bounds_cache : int;
  out_load : float option;
  default_tc_ratio : float;
  default_max_rounds : int;
  times : bool;
}

let default_config =
  {
    window = 16;
    tenant_sweeps = None;
    job_sweeps = None;
    job_wall_ms = None;
    netlist_cache = 64;
    bounds_cache = Bounds.default_cache_capacity;
    out_load = None;
    default_tc_ratio = 0.8;
    default_max_rounds = 20;
    times = true;
  }

type tenant = {
  budget : Budget.t;  (* aggregate sweep account, spent at batch close *)
  mutable jobs : int;
  mutable rejected : int;
}

type counters = {
  mutable ok : int;
  mutable degraded : int;
  mutable unmet : int;
  mutable rejected : int;
  mutable invalid : int;
  mutable failed : int;
}

type t = {
  config : config;
  lib : Library.t;
  cache : Cache.t;
  tenants : (string, tenant) Hashtbl.t;
  counters : counters;
  mutable jobs_run : int;
}

let create ?(config = default_config) tech =
  if config.window < 1 then invalid_arg "Engine.create: window must be >= 1";
  Bounds.set_cache_capacity config.bounds_cache;
  {
    config;
    lib = Library.make tech;
    cache = Cache.create ~capacity:config.netlist_cache ?out_load:config.out_load tech;
    tenants = Hashtbl.create 16;
    counters = { ok = 0; degraded = 0; unmet = 0; rejected = 0; invalid = 0; failed = 0 };
    jobs_run = 0;
  }

let config t = t.config
let jobs_run t = t.jobs_run

(* ------------------------------------------------------------------ *)
(* intake: sequential, in submission order — every decision here       *)
(* (admission, budget reservation, cache verdicts) is deterministic    *)
(* in the job stream                                                   *)
(* ------------------------------------------------------------------ *)

type prepared =
  | Ready of {
      job : Job.t;
      nl : Netlist.t;  (* the job's private copy *)
      names : Pops_netlist.Bench_io.names;
      parse_diags : Diag.t list;
      cache : Cache.verdict;
      budget : Budget.t;  (* per-job; sweeps read back at batch close *)
      tenant : tenant;
    }
  | Done of Job.result  (* decided at intake: rejected / invalid *)

let tenant_of t name =
  match Hashtbl.find_opt t.tenants name with
  | Some tn -> tn
  | None ->
    let tn =
      { budget = Budget.create ?sweeps:t.config.tenant_sweeps ();
        jobs = 0; rejected = 0 }
    in
    Hashtbl.add t.tenants name tn;
    tn

(* the tenant's remaining sweep allowance, [None] when uncapped (the
   max_int default only survives the round trip when there is no cap) *)
let tenant_remaining tn =
  let r = Budget.remaining_sweeps tn.budget ~default:max_int in
  if r = max_int then None else Some r

let job_budget t tn =
  let sweeps =
    match (t.config.job_sweeps, tenant_remaining tn) with
    | None, None -> None
    | (Some _ as s), None | None, (Some _ as s) -> s
    | Some a, Some b -> Some (min a b)
  in
  Budget.create ?wall_ms:t.config.job_wall_ms ?sweeps ()

let intake_result (job : Job.t) status ?(cache = `None) diags =
  {
    Job.seq = job.Job.seq;
    id = job.Job.id;
    tenant = job.Job.tenant;
    status;
    cache;
    metrics = [];
    diags;
    ms = 0.;
  }

let status_of_blocking_diag d =
  match Diag.classify d.Diag.code with
  | `Invalid_input -> Job.Invalid
  | `Constraint -> Job.Unmet
  | `Degradation | `Internal -> Job.Failed

let source_text (job : Job.t) =
  match job.Job.source with
  | Job.Inline text -> Ok text
  | Job.File path -> (
    match In_channel.with_open_bin path In_channel.input_all with
    | text -> Ok text
    | exception Sys_error e ->
      Error (Diag.makef Diag.Invalid_input "cannot read netlist file: %s" e))

let lru_stats_json (s : Pops_util.Lru.stats) =
  Json.Obj
    [ ("hits", Json.Num (float_of_int s.Pops_util.Lru.hits));
      ("misses", Json.Num (float_of_int s.Pops_util.Lru.misses));
      ("evictions", Json.Num (float_of_int s.Pops_util.Lru.evictions));
      ("length", Json.Num (float_of_int s.Pops_util.Lru.length)) ]

(* the readiness probe: engine/cache/pool state, served at intake so it
   can never be starved by a tenant budget or a crashed job — a health
   line is a pure function of the engine state at its stream position *)
let health_metrics t =
  [ ("health", Json.Bool true);
    ("jobs", Json.Num (float_of_int t.jobs_run));
    ("window", Json.Num (float_of_int t.config.window));
    ("domains", Json.Num (float_of_int (Pool.default_size ())));
    ("netlist_cache", lru_stats_json (Cache.stats t.cache));
    ("bounds_cache", lru_stats_json (Bounds.cache_stats ())) ]

let admit t (job : Job.t) =
  if job.Job.action = Job.Health then
    Done
      { Job.seq = job.Job.seq; id = job.Job.id; tenant = job.Job.tenant;
        status = Job.Ok_; cache = `None; metrics = health_metrics t;
        diags = []; ms = 0. }
  else
  let tn = tenant_of t job.Job.tenant in
  if Budget.exhausted tn.budget then begin
    tn.rejected <- tn.rejected + 1;
    intake_result job Job.Rejected
      [ Diag.makef ~subject:job.Job.tenant Diag.Admission_rejected
          "job %s refused: tenant %s spent its %d-sweep serve budget" job.Job.id
          job.Job.tenant
          (Budget.sweeps_spent tn.budget) ]
    |> fun r -> Done r
  end
  else
    match source_text job with
    | Error d -> Done (intake_result job Job.Invalid [ d ])
    | Ok text -> (
      let parsed, verdict = Cache.fetch t.cache text in
      match parsed with
      | Error d ->
        Done
          (intake_result job (status_of_blocking_diag d)
             ~cache:(verdict :> [ `Hit | `Miss | `None ])
             [ d ])
      | Ok (nl, names, parse_diags) ->
        tn.jobs <- tn.jobs + 1;
        Ready
          { job; nl; names; parse_diags; cache = verdict;
            budget = job_budget t tn; tenant = tn })

(* ------------------------------------------------------------------ *)
(* execution: one contained pool task per job                          *)
(* ------------------------------------------------------------------ *)

let num3 x = Json.Num (Job.round3 x)

let shape_metrics nl =
  [ ("gates", Json.Num (float_of_int (Netlist.gate_count nl)));
    ("inputs", Json.Num (float_of_int (Netlist.input_count nl)));
    ("outputs", Json.Num (float_of_int (List.length (Netlist.outputs nl))));
    ("depth", Json.Num (float_of_int (Netlist.depth nl))) ]

let has_warnings diags =
  List.exists (fun d -> d.Diag.severity <> Diag.Info) diags

let exec_analyze t (job : Job.t) nl parse_diags =
  let timing = Timing.analyze ~lib:t.lib nl in
  let delay = Timing.critical_delay timing in
  let power = NPower.analyze ~lib:t.lib nl in
  let metrics =
    shape_metrics nl
    @ [ ("delay_ps", num3 delay); ("area_um", num3 power.NPower.area);
        ("power_uw", num3 power.NPower.dynamic_uw) ]
    @
    match job.Job.tc_ps with
    | Some tc -> [ ("tc_ps", num3 tc); ("met", Json.Bool (delay <= tc)) ]
    | None -> []
  in
  let status =
    match job.Job.tc_ps with
    | Some tc when delay > tc -> Job.Unmet
    | _ -> if has_warnings parse_diags then Job.Degraded else Job.Ok_
  in
  (status, metrics, parse_diags)

let flow_metrics ~tc (r : Flow.report) =
  [ ("tc_ps", num3 tc); ("initial_delay_ps", num3 r.Flow.initial_delay);
    ("final_delay_ps", num3 r.Flow.final_delay);
    ("initial_area_um", num3 r.Flow.initial_area);
    ("final_area_um", num3 r.Flow.final_area);
    ("rounds", Json.Num (float_of_int (List.length r.Flow.iterations)));
    ("buffers", Json.Num (float_of_int r.Flow.buffers_added));
    ("rewrites", Json.Num (float_of_int r.Flow.rewrites));
    ("flow", Json.Str (Flow.outcome_to_string r.Flow.outcome));
    ("met", Json.Bool (r.Flow.outcome = Flow.Met));
    ("equivalence", Json.Bool (Result.is_ok r.Flow.equivalence)) ]
  @
  (* only when the job opted into the pass, so pre-existing result
     lines stay byte-identical *)
  match r.Flow.vt with
  | None -> []
  | Some v ->
    [ ("leakage_before_uw", num3 v.Pops_flow.Vt_assign.leakage_before);
      ("leakage_after_uw", num3 v.Pops_flow.Vt_assign.leakage_after);
      ("vt_accepted", Json.Num (float_of_int v.Pops_flow.Vt_assign.accepted));
      ("vt_rejected", Json.Num (float_of_int v.Pops_flow.Vt_assign.rejected)) ]

let exec_optimize t (job : Job.t) ~budget nl names parse_diags =
  let d0 = Timing.critical_delay (Timing.analyze ~lib:t.lib nl) in
  let tc =
    match job.Job.tc_ps with
    | Some tc -> tc
    | None ->
      Option.value job.Job.tc_ratio ~default:t.config.default_tc_ratio *. d0
  in
  let max_rounds =
    Option.value job.Job.max_rounds ~default:t.config.default_max_rounds
  in
  let outcome =
    Flow.optimize_o ~budget ~max_rounds ?k_paths:job.Job.k_paths
      ~vt_assign:job.Job.vt_assign ~name:(Bench_io.name_fn names) ~lib:t.lib ~tc nl
  in
  match outcome with
  | Outcome.Failed d ->
    (status_of_blocking_diag d, shape_metrics nl, parse_diags @ [ d ])
  | Outcome.Exact r ->
    let status = if has_warnings parse_diags then Job.Degraded else Job.Ok_ in
    (status, shape_metrics nl @ flow_metrics ~tc r, parse_diags)
  | Outcome.Degraded (r, diags) ->
    let status = if r.Flow.outcome = Flow.Met then Job.Degraded else Job.Unmet in
    (status, shape_metrics nl @ flow_metrics ~tc r, parse_diags @ diags)

let exec t prepared =
  match prepared with
  | Done result -> result
  | Ready r ->
    let t0 = Unix.gettimeofday () in
    let status, metrics, diags =
      match r.job.Job.action with
      | Job.Analyze -> exec_analyze t r.job r.nl r.parse_diags
      | Job.Optimize ->
        exec_optimize t r.job ~budget:r.budget r.nl r.names r.parse_diags
      | Job.Health ->
        (* health probes are answered at intake, never prepared *)
        (Job.Ok_, health_metrics t, [])
    in
    {
      Job.seq = r.job.Job.seq;
      id = r.job.Job.id;
      tenant = r.job.Job.tenant;
      status;
      cache = (r.cache :> [ `Hit | `Miss | `None ]);
      metrics;
      diags;
      ms = 1000. *. (Unix.gettimeofday () -. t0);
    }

(* ------------------------------------------------------------------ *)
(* batch close: containment unwrap + deterministic accounting          *)
(* ------------------------------------------------------------------ *)

let crash_result prepared d task_diags =
  match prepared with
  | Done r -> r (* unreachable: trivial tasks do not crash *)
  | Ready r ->
    {
      Job.seq = r.job.Job.seq;
      id = r.job.Job.id;
      tenant = r.job.Job.tenant;
      status = Job.Failed;
      cache = (r.cache :> [ `Hit | `Miss | `None ]);
      metrics = [];
      diags = task_diags @ [ d ];
      ms = 0.;
    }

let count t (r : Job.result) =
  t.jobs_run <- t.jobs_run + 1;
  let c = t.counters in
  match r.Job.status with
  | Job.Ok_ -> c.ok <- c.ok + 1
  | Job.Degraded -> c.degraded <- c.degraded + 1
  | Job.Unmet -> c.unmet <- c.unmet + 1
  | Job.Rejected -> c.rejected <- c.rejected + 1
  (* transport-level sheds never pass through the engine; counted with
     rejections if one ever does *)
  | Job.Overloaded -> c.rejected <- c.rejected + 1
  | Job.Invalid -> c.invalid <- c.invalid + 1
  | Job.Failed -> c.failed <- c.failed + 1

let run_batch t jobs =
  let prepared = List.map (admit t) jobs in
  let executed = Pool.map_list_contained (exec t) prepared in
  let results =
    List.map2
      (fun prep (res, task_diags) ->
        match res with
        | Ok (r : Job.result) ->
          if task_diags = [] then r
          else { r with Job.diags = r.Job.diags @ task_diags }
        | Error d -> crash_result prep d task_diags)
      prepared executed
  in
  (* charge actual usage to the tenants, in submission order — the only
     cross-job state, settled at a deterministic point *)
  List.iter
    (function
      | Ready r -> Budget.spend r.tenant.budget (Budget.sweeps_spent r.budget)
      | Done _ -> ())
    prepared;
  List.iter (count t) results;
  results

let run_job t job =
  match run_batch t [ job ] with
  | [ r ] -> r
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* summary                                                             *)
(* ------------------------------------------------------------------ *)

let summary_json t =
  let c = t.counters in
  let tenants =
    Hashtbl.fold (fun name tn acc -> (name, tn) :: acc) t.tenants []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (name, tn) ->
           Json.Obj
             [ ("tenant", Json.Str name);
               ("jobs", Json.Num (float_of_int tn.jobs));
               ("rejected", Json.Num (float_of_int tn.rejected));
               ("sweeps", Json.Num (float_of_int (Budget.sweeps_spent tn.budget))) ])
  in
  Json.Obj
    [ ("summary", Json.Bool true);
      ("jobs", Json.Num (float_of_int t.jobs_run));
      ("ok", Json.Num (float_of_int c.ok));
      ("degraded", Json.Num (float_of_int c.degraded));
      ("unmet", Json.Num (float_of_int c.unmet));
      ("rejected", Json.Num (float_of_int c.rejected));
      ("invalid", Json.Num (float_of_int c.invalid));
      ("failed", Json.Num (float_of_int c.failed));
      ("netlist_cache", lru_stats_json (Cache.stats t.cache));
      ("bounds_cache", lru_stats_json (Bounds.cache_stats ()));
      ("tenants", Json.Arr tenants) ]
