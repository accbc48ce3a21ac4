(* Determinism tests for the domain pool: a fan-out over the pool must
   be bit-identical to the sequential computation at any domain count.
   The unit tests pin the pool contract (ordered results, ordered
   reduction, smallest-index exception, nesting); the integration tests
   run the real optimization entry points at 1 and 4 domains and compare
   the results field by field. *)

module Tech = Pops_process.Tech
module Library = Pops_cell.Library
module Netlist = Pops_netlist.Netlist
module Timing = Pops_sta.Timing
module Bounds = Pops_core.Bounds
module Protocol = Pops_core.Protocol
module Profiles = Pops_circuits.Profiles
module Random_search = Pops_baselines.Random_search
module Flow = Pops_flow.Flow
module Pool = Pops_util.Pool

let tech = Tech.cmos025
let lib = Library.make tech

(* run [f] against a default pool of [n] domains, restoring the previous
   default afterwards even if [f] raises *)
let with_domains n f =
  let old = Pool.default_size () in
  Pool.set_default_size n;
  Fun.protect ~finally:(fun () -> Pool.set_default_size old) f

(* --- pool unit tests ------------------------------------------------ *)

let test_map_ordered () =
  let pool = Pool.create ~size:4 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
      let xs = Array.init 100 Fun.id in
      let seq = Array.map (fun i -> i * i) xs in
      let par = Pool.parallel_map ~pool (fun i -> i * i) xs in
      Alcotest.(check (array int)) "ordered results" seq par;
      Alcotest.(check (array int)) "empty input" [||]
        (Pool.parallel_map ~pool (fun i -> i) [||]))

let test_exception_smallest_index () =
  let pool = Pool.create ~size:4 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
      let xs = Array.init 64 Fun.id in
      let f i = if i >= 17 then failwith (string_of_int i) else i in
      (match Pool.parallel_map ~pool f xs with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure msg ->
        (* many tasks fail; the re-raise must pick the first submission
           index, exactly the failure a sequential map would hit *)
        Alcotest.(check string) "first failing index wins" "17" msg);
      (* the pool survives a failed fan-out *)
      let ok = Pool.parallel_map ~pool (fun i -> i + 1) (Array.init 16 Fun.id) in
      Alcotest.(check (array int)) "pool usable after failure"
        (Array.init 16 (fun i -> i + 1)) ok)

let test_reduce_ordered () =
  let pool = Pool.create ~size:4 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
      let xs = Array.init 50 Fun.id in
      (* string concatenation is order-sensitive: any reordering of the
         reduction changes the result *)
      let seq =
        Array.fold_left (fun acc i -> acc ^ "," ^ string_of_int (i * 3)) "" xs
      in
      let par =
        Pool.parallel_reduce ~pool
          ~map:(fun i -> i * 3)
          ~combine:(fun acc v -> acc ^ "," ^ string_of_int v)
          ~init:"" xs
      in
      Alcotest.(check string) "ordered reduction" seq par)

let test_nested_map () =
  (* a task that itself fans out must not deadlock even when every
     worker is busy: the caller steals its own task indices *)
  let pool = Pool.create ~size:4 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
      let outer = Array.init 8 Fun.id in
      let result =
        Pool.parallel_map ~pool
          (fun i ->
            let inner = Pool.parallel_map ~pool (fun j -> (i * 10) + j) (Array.init 8 Fun.id) in
            Array.fold_left ( + ) 0 inner)
          outer
      in
      let expected =
        Array.map
          (fun i -> Array.fold_left ( + ) 0 (Array.init 8 (fun j -> (i * 10) + j)))
          outer
      in
      Alcotest.(check (array int)) "nested fan-out" expected result)

let test_default_size () =
  with_domains 4 (fun () ->
      Alcotest.(check int) "set_default_size observed" 4 (Pool.default_size ());
      let xs = Array.init 25 Fun.id in
      Alcotest.(check (array int)) "default pool maps"
        (Array.map succ xs)
        (Pool.parallel_map succ xs));
  with_domains 1 (fun () ->
      Alcotest.(check int) "sequential default" 1 (Pool.default_size ()))

(* --- integration: 1 domain vs 4 domains, field by field ------------- *)

let sizing = Alcotest.(array (float 0.))

(* Flow reports compared on everything except [protocol_ms] (wall-clock
   is the one field that may legitimately differ between runs) *)
let check_flow_equal name (a : Flow.report) (b : Flow.report) =
  let outcome o =
    match o with
    | Flow.Met -> "met"
    | Flow.No_progress -> "no-progress"
    | Flow.Budget_exhausted -> "budget"
  in
  Alcotest.(check string) (name ^ ": outcome") (outcome a.Flow.outcome) (outcome b.Flow.outcome);
  Alcotest.(check (float 0.)) (name ^ ": initial delay") a.Flow.initial_delay b.Flow.initial_delay;
  Alcotest.(check (float 0.)) (name ^ ": final delay") a.Flow.final_delay b.Flow.final_delay;
  Alcotest.(check (float 0.)) (name ^ ": initial area") a.Flow.initial_area b.Flow.initial_area;
  Alcotest.(check (float 0.)) (name ^ ": final area") a.Flow.final_area b.Flow.final_area;
  Alcotest.(check int) (name ^ ": buffers") a.Flow.buffers_added b.Flow.buffers_added;
  Alcotest.(check int) (name ^ ": rewrites") a.Flow.rewrites b.Flow.rewrites;
  Alcotest.(check (list (triple int string int)))
    (name ^ ": iterations")
    (List.map
       (fun (it : Flow.iteration) ->
         (it.Flow.round, Protocol.strategy_to_string it.Flow.strategy, it.Flow.path_gates))
       a.Flow.iterations)
    (List.map
       (fun (it : Flow.iteration) ->
         (it.Flow.round, Protocol.strategy_to_string it.Flow.strategy, it.Flow.path_gates))
       b.Flow.iterations);
  Alcotest.(check bool) (name ^ ": equivalence")
    (Result.is_ok a.Flow.equivalence) (Result.is_ok b.Flow.equivalence)

let flow_report (p : Profiles.t) =
  let nl, _ = Profiles.circuit tech p in
  let nl = Netlist.copy nl in
  let d0 = Timing.critical_delay (Timing.analyze ~lib nl) in
  Pops_robust.Outcome.get
    (Flow.optimize_o ~max_rounds:2 ~k_paths:3 ~lib ~tc:(0.85 *. d0) nl)

let test_flow_deterministic () =
  List.iter
    (fun (p : Profiles.t) ->
      let seq = with_domains 1 (fun () -> flow_report p) in
      let par = with_domains 4 (fun () -> flow_report p) in
      check_flow_equal p.Profiles.name seq par)
    Profiles.all

let extracted (p : Profiles.t) =
  let nl, spine = Profiles.circuit tech p in
  (Pops_sta.Paths.extract ~lib nl spine).Pops_sta.Paths.path

let test_protocol_deterministic () =
  List.iter
    (fun (p : Profiles.t) ->
      let path = extracted p in
      (* medium constraint = all three candidate generators fan out; on
         the longest paths the buffering/restructuring generators cost
         seconds each, so the giants assert determinism at a weak
         constraint instead (the multi-generator fan-out is covered by
         every mid-size circuit, and by the Flow test on the giants) *)
      let ratio = if p.Profiles.path_gates <= 47 then 1.5 else 2.8 in
      let tc = ratio *. (Bounds.compute path).Bounds.tmin in
      let run () = Protocol.run ~lib ~tc path in
      let seq = with_domains 1 run in
      let par = with_domains 4 run in
      let name = p.Profiles.name in
      Alcotest.(check string) (name ^ ": strategy")
        (Protocol.strategy_to_string seq.Protocol.strategy)
        (Protocol.strategy_to_string par.Protocol.strategy);
      Alcotest.(check (float 0.)) (name ^ ": delay") seq.Protocol.delay par.Protocol.delay;
      Alcotest.(check (float 0.)) (name ^ ": area") seq.Protocol.area par.Protocol.area;
      Alcotest.check sizing (name ^ ": sizing") seq.Protocol.sizing par.Protocol.sizing)
    Profiles.all

let test_random_search_deterministic () =
  List.iter
    (fun (p : Profiles.t) ->
      let path = extracted p in
      (* short search: determinism does not depend on the step budget *)
      let run () = Random_search.minimum_delay ~restarts:6 ~steps:150 path in
      let seq = with_domains 1 run in
      let par = with_domains 4 run in
      let name = p.Profiles.name in
      Alcotest.(check (float 0.)) (name ^ ": delay")
        seq.Random_search.delay par.Random_search.delay;
      Alcotest.(check (float 0.)) (name ^ ": area")
        seq.Random_search.area par.Random_search.area;
      Alcotest.(check int) (name ^ ": evaluations")
        seq.Random_search.evaluations par.Random_search.evaluations;
      Alcotest.check sizing (name ^ ": sizing")
        seq.Random_search.sizing par.Random_search.sizing)
    Profiles.all

(* a stray POPS_FAULT must not perturb this deterministic suite;
   fault behaviour is covered by pops_prop and test_core's ladder *)
let () = Pops_check.Fault.clear ()

let () =
  Alcotest.run "pops_par"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel_map is ordered" `Quick test_map_ordered;
          Alcotest.test_case "first-index exception" `Quick test_exception_smallest_index;
          Alcotest.test_case "ordered reduction" `Quick test_reduce_ordered;
          Alcotest.test_case "nested fan-out" `Quick test_nested_map;
          Alcotest.test_case "default pool size" `Quick test_default_size;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "Flow.optimize 1 vs 4 domains" `Quick test_flow_deterministic;
          Alcotest.test_case "Protocol.run 1 vs 4 domains" `Quick test_protocol_deterministic;
          Alcotest.test_case "Random_search 1 vs 4 domains" `Quick
            test_random_search_deterministic;
        ] );
    ]
