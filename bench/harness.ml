(* The one harness behind every bench/main.exe experiment: the module
   aliases and helpers the experiments share, one row emitter, one
   min-of-rounds timer, one domain sweep, and one failure path.

   A failed check calls [fail]: the message is printed at once, the run
   goes on to the last experiment and then exits 1, and the experiment
   that failed writes no BENCH file. *)

module Tech = Pops_process.Tech
module Gk = Pops_cell.Gate_kind
module Library = Pops_cell.Library
module Edge = Pops_delay.Edge
module Model = Pops_delay.Model
module Path = Pops_delay.Path
module Netlist = Pops_netlist.Netlist
module Generator = Pops_netlist.Generator
module Bench_io = Pops_netlist.Bench_io
module Logic = Pops_netlist.Logic
module Power = Pops_sta.Power
module Paths = Pops_sta.Paths
module Timing = Pops_sta.Timing
module Transient = Pops_spice.Transient
module Bounds = Pops_core.Bounds
module Sens = Pops_core.Sensitivity
module Buffers = Pops_core.Buffers
module Restructure = Pops_core.Restructure
module Domains = Pops_core.Domains
module Tradeoff = Pops_core.Tradeoff
module Protocol = Pops_core.Protocol
module Profiles = Pops_circuits.Profiles
module Amps = Pops_amps.Amps
module Flow = Pops_flow.Flow
module Vt_assign = Pops_flow.Vt_assign
module Json = Pops_serve.Json
module Pool = Pops_util.Pool
module Rng = Pops_util.Rng
module Table = Pops_util.Table

let tech = Tech.cmos025
let lib = Library.make tech
let host_cores = Domain.recommended_domain_count ()

(* --smoke: cut sizes and iteration counts so CI can exercise every code
   path in seconds; numbers produced under smoke are not trajectories *)
let smoke = ref false

let pct a b = if b = 0. then 0. else 100. *. (b -. a) /. b

(* memoised circuit materialisation, path extraction and bounds *)
let circuit_cache : (string, Netlist.t * int list) Hashtbl.t = Hashtbl.create 16

let circuit (p : Profiles.t) =
  match Hashtbl.find_opt circuit_cache p.Profiles.name with
  | Some c -> c
  | None ->
    let c = Profiles.circuit tech p in
    Hashtbl.add circuit_cache p.Profiles.name c;
    c

let extracted_path (p : Profiles.t) =
  let nl, spine = circuit p in
  (Paths.extract ~lib nl spine).Paths.path

let bounds_cache : (string, Bounds.t) Hashtbl.t = Hashtbl.create 16

let bounds_of (p : Profiles.t) =
  match Hashtbl.find_opt bounds_cache p.Profiles.name with
  | Some b -> b
  | None ->
    let b = Bounds.compute (extracted_path p) in
    Hashtbl.add bounds_cache p.Profiles.name b;
    b

(* the 11-gate mixed path of the paper's Figs. 1 and 3 *)
let path11 () =
  Path.of_kinds ~lib ~branch:5. ~c_out:150.
    [ Gk.Inv; Gk.Nand 2; Gk.Inv; Gk.Nor 2; Gk.Nand 3; Gk.Inv; Gk.Aoi21;
      Gk.Inv; Gk.Nand 2; Gk.Nor 3; Gk.Inv ]

(* structural digest of a netlist: kinds, Vt classes, fan-ins, sizes,
   wires and output loads over the topological order — equal digests
   mean the two final netlists are the same circuit with the same
   sizing and threshold assignment, bit for bit *)
let netlist_fingerprint t =
  let b = Buffer.create 65536 in
  List.iter
    (fun id ->
      Buffer.add_string b
        (Printf.sprintf "%d:%d:%d:%h:%h" id
           (Netlist.Csr.code_of_kind (Netlist.kind t id))
           (Pops_process.Vt.to_int (Netlist.vt_of t id))
           (Netlist.cin t id) (Netlist.wire t id));
      Array.iter (fun f -> Buffer.add_string b (Printf.sprintf ",%d" f)) (Netlist.fanins t id);
      Buffer.add_char b ';')
    (Netlist.topological_order t);
  List.iter
    (fun (id, l) -> Buffer.add_string b (Printf.sprintf "o%d:%h" id l))
    (Netlist.outputs t);
  Digest.to_hex (Digest.string (Buffer.contents b))

let report_fingerprint (r : Flow.report) =
  Printf.sprintf "%s|%h|%h|%d|%d|%d|%d"
    (Flow.outcome_to_string r.Flow.outcome)
    r.Flow.final_delay r.Flow.final_area r.Flow.buffers_added r.Flow.rewrites
    r.Flow.stale_decisions
    (List.length r.Flow.iterations)

(* --- the failure path ---------------------------------------------- *)

let failures = ref []

let fail fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "FAIL: %s\n%!" m;
      failures := m :: !failures)
    fmt

(* --- the row emitter ------------------------------------------------ *)

(* One result row, keys as docs/bench-format.md lists them.  A [Null]
   value leaves its key out of the row (an absent speedup makes no
   claim at all). *)
type row = (string * Json.t) list

let num x = Json.Num x
let int n = Json.Num (float_of_int n)
let str s = Json.Str s
let opt = function Some x -> Json.Num x | None -> Json.Null

(* rows of the running experiment, per file, newest first *)
let pending : (string * row list) list ref = ref []

let emit file (r : row) =
  let r = List.filter (fun (_, v) -> v <> Json.Null) r in
  let rows = Option.value (List.assoc_opt file !pending) ~default:[] in
  pending := (file, r :: rows) :: List.remove_assoc file !pending

(* every file gets the same envelope, one row per line *)
let write_pending () =
  List.iter
    (fun (file, rows) ->
      let oc = open_out file in
      Printf.fprintf oc "{\"host_cores\": %d, \"smoke\": %b, \"results\": [\n%s\n]}\n"
        host_cores !smoke
        (String.concat ",\n"
           (List.rev_map (fun r -> "  " ^ Json.to_string (Json.Obj r)) rows));
      close_out oc;
      Printf.printf "wrote %s (%d rows)\n%!" file (List.length rows))
    (List.rev !pending);
  pending := []

(* --- the timer ------------------------------------------------------ *)

type 'a timed = {
  value : 'a;  (* what the thunk returned in the last round *)
  ns : float;  (* minimum wall time of one run, ns *)
  words : float;  (* mean minor words of one run *)
  major : float;  (* mean words one run allocates straight into the major heap *)
}

(* Run every thunk once to warm up, settle the GC, then time [rounds]
   interleaved rounds, each running every thunk once in order, so
   sustained host load perturbs every side of a comparison alike.  Wall
   clock on a shared host is noisy (the same op can vary several-fold
   run to run), so the time reported is the least-perturbed round;
   allocation counts are exact, so they are averaged.  The clock is the
   monotonic one, in nanoseconds: a short loop timed to the microsecond
   would come out quantized. *)
let time ~rounds fs =
  let last = Array.map (fun f -> f ()) fs in
  Gc.full_major ();
  let best = Array.make (Array.length fs) infinity in
  let words = Array.make (Array.length fs) 0. in
  let major = Array.make (Array.length fs) 0. in
  (* major words less promoted ones: the large blocks (over 256 words)
     that bypass the minor heap.  [Gc.counters] allocates, so it brackets
     the minor-word reads from outside *)
  let direct () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  for _ = 1 to rounds do
    Array.iteri
      (fun i f ->
        let m0 = direct () in
        let w0 = Gc.minor_words () in
        let t0 = Monotonic_clock.now () in
        last.(i) <- f ();
        let dt = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) in
        words.(i) <- words.(i) +. (Gc.minor_words () -. w0);
        major.(i) <- major.(i) +. (direct () -. m0);
        if dt < best.(i) then best.(i) <- dt)
      fs
  done;
  let per_run a = a /. float_of_int rounds in
  Array.mapi
    (fun i value ->
      { value; ns = best.(i); words = per_run words.(i); major = per_run major.(i) })
    last

(* --- the domain sweep ----------------------------------------------- *)

type 'a at = {
  domains : int;
  result : 'a;
  speedup : float option;  (* [None] when unmeasurable or without [cost] *)
  unmeasurable : bool;
      (* more domains than the host has cores: the run measures
         scheduling overhead, not scaling *)
}

(* Run [f] with the shared pool resized to each of [counts] (default 1,
   2, 4 and host_cores); the first count is the reference, and any other
   whose fingerprint differs from it fails the run.  With [cost],
   speedup is the reference's cost over this count's. *)
let sweep ?(counts = List.sort_uniq compare [ 1; 2; 4; host_cores ]) ?cost
    ~what ~fingerprint f =
  let ambient = Pool.default_size () in
  let runs =
    List.map
      (fun d ->
        Pool.set_default_size d;
        (d, f ()))
      counts
  in
  Pool.set_default_size ambient;
  let ref_result = snd (List.hd runs) in
  let ref_fp = fingerprint ref_result in
  List.map
    (fun (domains, result) ->
      if fingerprint result <> ref_fp then
        fail "%s: %d-domain result diverges from the %d-domain one" what domains
          (List.hd counts);
      let unmeasurable = domains > host_cores in
      let speedup =
        match cost with
        | Some c when not unmeasurable -> Some (c ref_result /. c result)
        | Some _ | None -> None
      in
      { domains; result; speedup; unmeasurable })
    runs

(* --- the run -------------------------------------------------------- *)

let main ~measure experiments =
  let args = List.filter (( <> ) "--") (List.tl (Array.to_list Sys.argv)) in
  smoke := List.mem "--smoke" args;
  let run name f =
    Printf.printf "\n=== %s ===\n%!" name;
    let failed = List.length !failures in
    let t0 = Unix.gettimeofday () in
    (try f () with e -> fail "%s raised %s" name (Printexc.to_string e));
    if List.length !failures = failed then write_pending () else pending := [];
    Printf.printf "[%s completed in %.1f s]\n%!" name (Unix.gettimeofday () -. t0)
  in
  (if List.mem "--list" args then
     List.iter (fun (name, _) -> print_endline name) experiments
   else if List.mem "--measure" args then run "measure" measure
   else
     let names =
       match List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args with
       | [] -> List.map fst experiments
       | names -> names
     in
     match List.filter (fun n -> not (List.mem_assoc n experiments)) names with
     | [] -> List.iter (fun name -> run name (List.assoc name experiments)) names
     | unknown ->
       fail "unknown experiment %s (try --list)" (String.concat ", " unknown));
  match !failures with
  | [] -> ()
  | fs ->
    Printf.eprintf "%d check(s) failed:\n" (List.length fs);
    List.iter (Printf.eprintf "  %s\n") (List.rev fs);
    exit 1
