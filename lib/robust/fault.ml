(* Deterministic fault injection.

   A spec is a comma-separated list of entries:

     entry   ::= point [ "@" prob ] | "seed=" int64
     point   ::= a registered name, a dot-prefix of one, or "all"

   Example: POPS_FAULT="solver.diverge@0.5,pool.raise,seed=7".

   Firing is a pure function of (seed, point, per-point call index):
   each armed point keeps an atomic call counter and the n-th query
   fires iff splitmix64(seed ^ fnv(point) ^ n) < prob.  With a single
   domain this is fully reproducible; across pool domains the per-point
   indices are claimed in scheduling order, so only probabilistic specs
   (prob < 1) can vary between runs — prob 1 (the default) always
   fires everywhere. *)

exception Injected of string

(* the closed registry of injection points; "all" and prefix matching
   resolve against this list at parse time *)
let points =
  [
    "solver.diverge.accel";
    "solver.diverge.plain";
    "solver.diverge.damped";
    "solver.nan.accel";
    "solver.nan.plain";
    "solver.nan.damped";
    "pool.raise";
    "bench.truncate";
    "vt.swap";
    "net.accept";
    "net.read";
    "net.write";
    "net.stall";
  ]

(* --- hashing --------------------------------------------------------- *)

let splitmix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

let unit_float h =
  (* top 53 bits -> [0, 1) *)
  Int64.to_float (Int64.shift_right_logical h 11) *. 0x1.p-53

(* --- specs ----------------------------------------------------------- *)

type armed = { prob : float; counter : int Atomic.t }

type spec = {
  text : string;
  seed : int64;
  table : (string, armed) Hashtbl.t;
}

let default_seed = 0x9095_FA17_2005L

let matches_entry entry point =
  entry = "all" || entry = point
  || String.length point > String.length entry
     && String.sub point 0 (String.length entry) = entry
     && point.[String.length entry] = '.'

let parse text =
  let entries =
    String.split_on_char ',' text |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let seed = ref default_seed in
  let armed : (string * float) list ref = ref [] in
  let err = ref None in
  List.iter
    (fun entry ->
      if !err = None then
        match String.index_opt entry '=' with
        | Some i when String.sub entry 0 i = "seed" -> (
          let v = String.sub entry (i + 1) (String.length entry - i - 1) in
          match Int64.of_string_opt v with
          | Some s -> seed := s
          | None -> err := Some (Printf.sprintf "bad seed %S" v))
        | Some _ -> err := Some (Printf.sprintf "bad entry %S" entry)
        | None -> (
          let name, prob =
            match String.index_opt entry '@' with
            | None -> (entry, 1.)
            | Some i ->
              let p = String.sub entry (i + 1) (String.length entry - i - 1) in
              ( String.sub entry 0 i,
                match float_of_string_opt p with
                | Some p when p >= 0. && p <= 1. -> p
                | Some _ | None -> Float.nan )
          in
          if Float.is_nan prob then
            err := Some (Printf.sprintf "bad probability in %S" entry)
          else
            match List.filter (matches_entry name) points with
            | [] ->
              err :=
                Some
                  (Printf.sprintf "unknown injection point %S (known: %s)" name
                     (String.concat ", " ("all" :: points)))
            | matched ->
              armed := List.map (fun p -> (p, prob)) matched @ !armed))
    entries;
  match !err with
  | Some e -> Error ("POPS_FAULT: " ^ e)
  | None ->
    let table = Hashtbl.create 16 in
    (* later entries win, so iterate in order and overwrite *)
    List.iter
      (fun (p, prob) ->
        Hashtbl.replace table p { prob; counter = Atomic.make 0 })
      (List.rev !armed);
    Ok { text; seed = !seed; table }

(* --- global state ---------------------------------------------------- *)

let ambient = Sys.getenv_opt "POPS_FAULT"

let ambient_error, initial =
  match ambient with
  | None -> (None, None)
  | Some text -> (
    match parse text with
    | Ok s -> (None, Some s)
    | Error e -> (Some e, None))

(* atomic so pool worker domains armed from the main domain observe the
   spec without locking on the hot (disarmed) path *)
let current : spec option Atomic.t = Atomic.make initial
let lock = Mutex.create ()

let clear () = Mutex.protect lock (fun () -> Atomic.set current None)

let arm text =
  match parse text with
  | Error _ as e -> e
  | Ok s ->
    Mutex.protect lock (fun () -> Atomic.set current (Some s));
    Ok ()

let with_spec text f =
  let previous = Mutex.protect lock (fun () -> Atomic.get current) in
  (match arm text with
  | Ok () -> ()
  | Error e -> invalid_arg ("Fault.with_spec: " ^ e));
  Fun.protect
    ~finally:(fun () -> Mutex.protect lock (fun () -> Atomic.set current previous))
    f

let fire point =
  match Atomic.get current with
  | None -> false
  | Some s -> (
    match Hashtbl.find_opt s.table point with
    | None -> false
    | Some a ->
      if a.prob >= 1. then true
      else if a.prob <= 0. then false
      else
        let n = Atomic.fetch_and_add a.counter 1 in
        let h =
          splitmix
            (Int64.logxor
               (Int64.logxor s.seed (fnv1a64 point))
               (Int64.of_int n))
        in
        unit_float h < a.prob)

let inject point = if fire point then raise (Injected point)

let () =
  Printexc.register_printer (function
    | Injected p -> Some (Printf.sprintf "Pops_robust.Fault.Injected(%s)" p)
    | _ -> None)
