(* Tests for Pops_util: numerics, rng, stats, table; and for the
   numerical references of test/numeric_oracle.ml. *)

module N = Pops_util.Numerics
module Rng = Pops_util.Rng
module Stats = Pops_util.Stats
module Table = Pops_util.Table

(* deterministic property tests: fixed RNG seed per test *)
let qtest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xC0FFEE |]) t

let check_close ?(eps = 1e-9) msg expected actual =
  if not (N.close ~rtol:eps ~atol:eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* --- numerics --- *)

let test_bisect_sqrt () =
  let r = N.bisect ~f:(fun x -> (x *. x) -. 2.) ~lo:0. ~hi:2. () in
  check_close ~eps:1e-9 "sqrt 2" (sqrt 2.) r

let test_bisect_no_bracket () =
  match N.bisect ~f:(fun x -> (x *. x) +. 1.) ~lo:(-1.) ~hi:1. () with
  | exception N.No_bracket _ -> ()
  | _ -> Alcotest.fail "expected No_bracket"

let test_golden_section () =
  let x, fx = Pops_baselines.Golden.section_min ~f:(fun x -> (x -. 3.) ** 2. +. 1.) ~lo:0. ~hi:10. () in
  check_close ~eps:1e-6 "argmin" 3. x;
  check_close ~eps:1e-6 "min" 1. fx

let test_fixed_point () =
  (* x -> cos x converges to the Dottie number. *)
  let step x = [| cos x.(0) |] in
  let x, iters = Numeric_oracle.fixed_point ~tol:1e-12 ~step ~distance:N.distance_inf [| 1. |] in
  check_close ~eps:1e-9 "dottie" 0.7390851332151607 x.(0);
  Alcotest.(check bool) "converged in bounded iters" true (iters < 200)

let test_fixed_point_trace () =
  let step x = [| 0.5 *. x.(0) |] in
  let trace = N.fixed_point_trace ~tol:1e-6 ~step ~distance:N.distance_inf [| 1. |] in
  Alcotest.(check bool) "trace has initial point" true (List.length trace > 3);
  (match trace with
  | first :: _ -> check_close "first is x0" 1. first.(0)
  | [] -> Alcotest.fail "empty trace");
  let last = List.nth trace (List.length trace - 1) in
  Alcotest.(check bool) "last is small" true (last.(0) < 1e-5)

let test_gradient_quadratic () =
  let f x = (x.(0) ** 2.) +. (3. *. x.(1) ** 2.) +. (x.(0) *. x.(1)) in
  let g = Numeric_oracle.gradient ~f [| 1.; 2. |] in
  check_close ~eps:1e-5 "df/dx0" (2. +. 2.) g.(0);
  check_close ~eps:1e-5 "df/dx1" (12. +. 1.) g.(1)

let test_linspace () =
  let a = N.linspace 0. 1. 5 in
  Alcotest.(check int) "length" 5 (Array.length a);
  check_close "first" 0. a.(0);
  check_close "last" 1. a.(4);
  check_close "mid" 0.5 a.(2)

let test_logspace () =
  let a = N.logspace 1. 100. 3 in
  check_close ~eps:1e-9 "geometric middle" 10. a.(1)

let test_clamp () =
  check_close "below" 1. (N.clamp ~lo:1. ~hi:2. 0.);
  check_close "above" 2. (N.clamp ~lo:1. ~hi:2. 3.);
  check_close "inside" 1.5 (N.clamp ~lo:1. ~hi:2. 1.5)

(* --- rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_of_string_stable () =
  let a = Rng.of_string "c432" and b = Rng.of_string "c432" in
  Alcotest.(check int64) "name-derived stream stable" (Rng.int64 a) (Rng.int64 b);
  let c = Rng.of_string "c499" in
  Alcotest.(check bool) "different names differ" true (Rng.int64 b <> Rng.int64 c)

let test_rng_float_range () =
  let r = Rng.create 7L in
  for _ = 1 to 1000 do
    let x = Rng.float r 3.5 in
    Alcotest.(check bool) "in [0,3.5)" true (x >= 0. && x < 3.5)
  done

let test_rng_int_range () =
  let r = Rng.create 9L in
  let seen = Array.make 10 false in
  for _ = 1 to 2000 do
    let i = Rng.int r 10 in
    Alcotest.(check bool) "in [0,10)" true (i >= 0 && i < 10);
    seen.(i) <- true
  done;
  Alcotest.(check bool) "all buckets hit" true (Array.for_all Fun.id seen)

let test_rng_split_independent () =
  let r = Rng.create 1L in
  let r', s = Rng.split r in
  Alcotest.(check bool) "parent returned" true (r == r');
  Alcotest.(check bool) "split streams differ" true (Rng.int64 r <> Rng.int64 s);
  (* the parent stream after a split is the plain stream minus one draw *)
  let a = Rng.create 42L and b = Rng.create 42L in
  let _, _ = Rng.split a in
  let (_ : int64) = Rng.int64 b in
  Alcotest.(check int64) "parent sequence unchanged" (Rng.int64 b) (Rng.int64 a);
  (* children are a pure function of the parent state, not of scheduling *)
  let p1 = Rng.create 7L and p2 = Rng.create 7L in
  let _, c1 = Rng.split p1 in
  let _, c2 = Rng.split p2 in
  Alcotest.(check int64) "split deterministic" (Rng.int64 c1) (Rng.int64 c2)

let test_rng_split_tree_replay () =
  (* a whole tree of splits replays from the root seed alone: the
     property harness (Pops_check) relies on this to re-generate any
     case from its recorded 64-bit seed *)
  let drain rng n = List.init n (fun _ -> Rng.int64 rng) in
  let tree seed =
    let root = Rng.create seed in
    let root, left = Rng.split root in
    let root, right = Rng.split root in
    let left, grandchild = Rng.split left in
    [ drain root 8; drain left 8; drain right 8; drain grandchild 8 ]
  in
  Alcotest.(check bool) "split tree replays" true (tree 0xFEEDL = tree 0xFEEDL);
  Alcotest.(check bool) "different seeds differ" true (tree 0xFEEDL <> tree 0xBEEFL)

let test_rng_split_streams_uncorrelated () =
  (* parent and child streams must not share draws at any aligned index
     over a long window (each coincidence has probability 2^-64) *)
  let parent = Rng.create 0xABCDEFL in
  let _, child = Rng.split parent in
  let collisions = ref 0 in
  for _ = 1 to 1024 do
    if Rng.int64 parent = Rng.int64 child then incr collisions
  done;
  Alcotest.(check int) "no aligned collisions" 0 !collisions;
  (* and a child's child is independent of both *)
  let p = Rng.create 0xABCDEFL in
  let p, c = Rng.split p in
  let _, gc = Rng.split c in
  let collisions = ref 0 in
  for _ = 1 to 1024 do
    let a = Rng.int64 p and b = Rng.int64 c and g = Rng.int64 gc in
    if a = b || b = g || a = g then incr collisions
  done;
  Alcotest.(check int) "three-way independent" 0 !collisions

let test_weighted_pick () =
  let r = Rng.create 3L in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 10_000 do
    let x = Rng.weighted_pick r [| ("a", 1.); ("b", 9.) |] in
    Hashtbl.replace counts x (1 + Option.value ~default:0 (Hashtbl.find_opt counts x))
  done;
  let b = Option.value ~default:0 (Hashtbl.find_opt counts "b") in
  Alcotest.(check bool) "b dominates ~9:1" true (b > 8500 && b < 9500)

let test_log_range () =
  let r = Rng.create 11L in
  for _ = 1 to 100 do
    let x = Rng.log_range r 1. 100. in
    Alcotest.(check bool) "in range" true (x >= 1. && x < 100.)
  done

(* --- stats --- *)

let test_stats_basic () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check_close "mean" 2.5 (Stats.mean xs)

let test_stats_percentile () =
  let xs = [| 10.; 20.; 30.; 40.; 50. |] in
  check_close "p0" 10. (Stats.percentile xs 0.);
  check_close "p100" 50. (Stats.percentile xs 100.);
  check_close "p50" 30. (Stats.percentile xs 50.);
  check_close "p25" 20. (Stats.percentile xs 25.)

let test_stats_empty () =
  check_close "mean empty" 0. (Stats.mean [||]);
  check_close "percentile empty" 0. (Stats.percentile [||] 50.)

(* --- lru --- *)

module Lru = Pops_util.Lru

let test_lru_eviction_order () =
  let t = Lru.create ~capacity:3 () in
  List.iter (fun k -> Lru.put t k (10 * k)) [ 1; 2; 3 ];
  (* touch 1 so it is most-recent; adding 4 must evict 2 *)
  Alcotest.(check (option int)) "find 1" (Some 10) (Lru.find t 1);
  Lru.put t 4 40;
  Alcotest.(check (option int)) "2 evicted" None (Lru.find t 2);
  Alcotest.(check (option int)) "3 kept" (Some 30) (Lru.find t 3);
  Alcotest.(check (option int)) "1 kept" (Some 10) (Lru.find t 1);
  Alcotest.(check int) "length" 3 (Lru.length t);
  (* recency is now 1, 3, 4, most recent first; a put of an existing key
     updates in place and refreshes it, no eviction: 4, 1, 3 *)
  Lru.put t 4 50;
  Alcotest.(check int) "no growth" 3 (Lru.length t);
  Alcotest.(check (option int)) "update" (Some 50) (Lru.find t 4);
  (* new keys now evict 3, 1 and 4 in turn; a miss refreshes nothing *)
  Lru.put t 5 50;
  Alcotest.(check (option int)) "least recent evicted" None (Lru.find t 3);
  Lru.put t 6 60;
  Alcotest.(check (option int)) "then 1" None (Lru.find t 1);
  Lru.put t 7 70;
  Alcotest.(check (option int)) "then 4" None (Lru.find t 4);
  Alcotest.(check int) "evictions" 4 (Lru.stats t).Lru.evictions

let test_lru_counters () =
  let t = Lru.create ~capacity:2 () in
  Lru.put t "a" 1;
  Lru.put t "b" 2;
  ignore (Lru.find t "a");
  (* hit *)
  ignore (Lru.find t "z");
  (* miss *)
  Lru.put t "c" 3;
  (* evicts the least-recent *)
  let s = Lru.stats t in
  Alcotest.(check int) "hits" 1 s.Lru.hits;
  Alcotest.(check int) "misses" 1 s.Lru.misses;
  Alcotest.(check int) "evictions" 1 s.Lru.evictions;
  Alcotest.(check int) "length" 2 s.Lru.length;
  Lru.clear t;
  Alcotest.(check int) "clear keeps counters" 1 (Lru.stats t).Lru.hits;
  Alcotest.(check int) "clear empties" 0 (Lru.length t)

let prop_lru_never_exceeds_capacity =
  QCheck.Test.make ~name:"lru length <= capacity, most-recent retained"
    ~count:200
    QCheck.(pair (int_range 1 8) (small_list (int_range 0 20)))
    (fun (cap, ops) ->
      let t = Lru.create ~capacity:cap () in
      List.iter (fun k -> Lru.put t k k) ops;
      Lru.length t <= cap
      && Lru.length t <= List.length (List.sort_uniq compare ops)
      (* the most recently inserted key is always present *)
      && (ops = [] || Lru.find t (List.nth ops (List.length ops - 1)) <> None))

(* --- table --- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_table_render () =
  let t = Table.create ~title:"T" [ ("name", Table.Left); ("v", Table.Right) ] in
  Table.add_row t [ "alpha"; "1.0" ];
  Table.add_row t [ "b"; "22.5" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool) "contains alpha" true (contains s "alpha");
  Alcotest.(check bool) "right-aligned value" true (contains s "| 22.5 |");
  Alcotest.(check bool) "left-padded shorter value" true (contains s "|  1.0 |")

let test_table_short_row_padded () =
  let t = Table.create [ ("a", Table.Left); ("b", Table.Left) ] in
  Table.add_row t [ "only" ];
  let s = Table.render t in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_cell_formats () =
  Alcotest.(check string) "cell_f" "3.14" (Table.cell_f 3.14159)

(* --- units --- *)

let fmt_to_string pp v = Format.asprintf "%a" pp v

let test_units_conversions () =
  check_close "ps of ns" 1500. (Units.ps_of_ns 1.5);
  check_close "ns of ps" 1.5 (Units.ns_of_ps 1500.);
  check_close "ff of pf" 250. (Units.ff_of_pf 0.25);
  check_close "pf of ff" 0.25 (Units.pf_of_ff 250.)

let test_units_pp_adaptive () =
  Alcotest.(check string) "small time" "12.3 ps" (fmt_to_string Units.pp_time 12.34);
  Alcotest.(check string) "large time" "2.500 ns" (fmt_to_string Units.pp_time 2500.);
  Alcotest.(check string) "small cap" "3.20 fF" (fmt_to_string Units.pp_cap 3.2);
  Alcotest.(check string) "large cap" "1.500 pF" (fmt_to_string Units.pp_cap 1500.);
  Alcotest.(check string) "width" "4.50 um" (fmt_to_string Units.pp_width 4.5);
  Alcotest.(check string) "percent" "+13.0%" (fmt_to_string Units.pp_percent 0.13);
  Alcotest.(check string) "negative percent" "-7.5%" (fmt_to_string Units.pp_percent (-0.075))

let test_table_long_row_truncated () =
  let t = Table.create [ ("a", Table.Left) ] in
  Table.add_row t [ "x"; "overflow" ];
  let s = Table.render t in
  Alcotest.(check bool) "extra cell dropped" true (not (contains s "overflow"))

(* --- qcheck properties --- *)

let prop_bisect_finds_roots =
  QCheck.Test.make ~name:"bisect finds root of monotone cubic" ~count:200
    QCheck.(float_range (-5.) 5.)
    (fun c ->
      (* f(x) = x^3 + x - c is strictly increasing, root within [-10,10] *)
      let f x = (x ** 3.) +. x -. c in
      let r = N.bisect ~f ~lo:(-10.) ~hi:10. () in
      Float.abs (f r) < 1e-6)

let prop_clamp_idempotent =
  QCheck.Test.make ~name:"clamp idempotent" ~count:500
    QCheck.(triple (float_range (-10.) 10.) (float_range (-10.) 0.) (float_range 0. 10.))
    (fun (x, lo, hi) ->
      let c = N.clamp ~lo ~hi x in
      N.clamp ~lo ~hi c = c && c >= lo && c <= hi)

let prop_percentile_bounded =
  QCheck.Test.make ~name:"percentile within min/max" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 50) (float_range (-100.) 100.))
              (float_range 0. 100.))
    (fun (xs, p) ->
      let a = Array.of_list xs in
      let v = Stats.percentile a p in
      let lo = Array.fold_left Float.min a.(0) a and hi = Array.fold_left Float.max a.(0) a in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

(* a stray POPS_FAULT must not perturb this deterministic suite;
   fault behaviour is covered by pops_prop and test_core's ladder *)
let () = Pops_check.Fault.clear ()

let () =
  Alcotest.run "pops_util"
    [
      ( "numerics",
        [
          Alcotest.test_case "bisect sqrt" `Quick test_bisect_sqrt;
          Alcotest.test_case "bisect no-bracket" `Quick test_bisect_no_bracket;
          Alcotest.test_case "golden section" `Quick test_golden_section;
          Alcotest.test_case "fixed point" `Quick test_fixed_point;
          Alcotest.test_case "fixed point trace" `Quick test_fixed_point_trace;
          Alcotest.test_case "numerical gradient" `Quick test_gradient_quadratic;
          Alcotest.test_case "linspace" `Quick test_linspace;
          Alcotest.test_case "logspace" `Quick test_logspace;
          Alcotest.test_case "clamp" `Quick test_clamp;
          qtest prop_bisect_finds_roots;
          qtest prop_clamp_idempotent;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "of_string stable" `Quick test_rng_of_string_stable;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int range and coverage" `Quick test_rng_int_range;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "split tree replay" `Quick test_rng_split_tree_replay;
          Alcotest.test_case "split streams uncorrelated" `Quick
            test_rng_split_streams_uncorrelated;
          Alcotest.test_case "weighted pick" `Quick test_weighted_pick;
          Alcotest.test_case "log range" `Quick test_log_range;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          qtest prop_percentile_bounded;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "counters" `Quick test_lru_counters;
          qtest prop_lru_never_exceeds_capacity;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "short row padded" `Quick test_table_short_row_padded;
          Alcotest.test_case "cell formats" `Quick test_cell_formats;
          Alcotest.test_case "long row truncated" `Quick test_table_long_row_truncated;
        ] );
      ( "units",
        [
          Alcotest.test_case "conversions" `Quick test_units_conversions;
          Alcotest.test_case "adaptive printing" `Quick test_units_pp_adaptive;
        ] );
    ]
