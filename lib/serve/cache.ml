module Netlist = Pops_netlist.Netlist
module Bench_io = Pops_netlist.Bench_io
module Diag = Pops_robust.Diag
module Outcome = Pops_robust.Outcome
module Lru = Pops_util.Lru

type verdict = [ `Hit | `Miss ]

type entry =
  | Parsed of Netlist.t * Bench_io.names * Diag.t list
      (** pristine — handed out only as copies *)
  | Malformed of Diag.t

type t = {
  tech : Pops_process.Tech.t;
  out_load : float option;
  lru : (string, entry) Lru.t;
  lock : Mutex.t;
}

let create ~capacity ?out_load tech =
  { tech; out_load; lru = Lru.create ~capacity (); lock = Mutex.create () }

(* the out_load parameter changes what a given text parses to, so it is
   part of the key; MD5 keeps keys fixed-size for arbitrarily large
   netlist payloads *)
let key t text =
  Digest.to_hex
    (Digest.string
       (match t.out_load with
       | None -> text
       | Some l -> Printf.sprintf "%h|" l ^ text))

let parse_entry t text =
  match Bench_io.parse_o t.tech ?out_load:t.out_load text with
  | Outcome.Exact (nl, names) ->
    ignore (Netlist.csr nl);
    Parsed (nl, names, [])
  | Outcome.Degraded ((nl, names), diags) ->
    ignore (Netlist.csr nl);
    Parsed (nl, names, diags)
  | Outcome.Failed d -> Malformed d

let result_of_entry = function
  | Parsed (nl, names, diags) ->
    (* the copy inherits the pristine's warmed levels and loads, and
       shares its derived order (see Netlist.copy) *)
    Ok (Netlist.copy nl, names, diags)
  | Malformed d -> Error d

let fetch t text =
  let k = key t text in
  Mutex.protect t.lock (fun () ->
      match Lru.find t.lru k with
      | Some entry -> (result_of_entry entry, `Hit)
      | None ->
        let entry = parse_entry t text in
        Lru.put t.lru k entry;
        (result_of_entry entry, `Miss))

let stats t = Mutex.protect t.lock (fun () -> Lru.stats t.lru)
let clear t = Mutex.protect t.lock (fun () -> Lru.clear t.lru)
