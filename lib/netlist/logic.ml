(* One evaluator, [sweep]: gates in topological order over a flat byte
   buffer of 64-lane words per node id, kinds and fan-ins read from
   the {!Netlist.Csr} snapshot.  Scalar and packed evaluation,
   equivalence and cone tables are all that sweep; signal probabilities
   are one float pass over the same order, with truth tables read off
   the same word function. *)

module Gk = Pops_cell.Gate_kind
module Csr = Netlist.Csr

(* The boolean function of every coded kind, written once over 64 lanes:
   [code] is its {!Netlist.Csr.kind_code}, [a]..[d] its pin words (pins
   past the arity are ignored).  Inlined, every branch stays an unboxed
   int64; the fallback raises rather than calls [invalid_arg], which
   would box the result. *)
let[@inline] word code a b c d =
  let open Int64 in
  match code with
  | 0 (* inv *) -> lognot a
  | 1 (* buf *) -> a
  | 2 (* nand2 *) -> lognot (logand a b)
  | 3 (* nand3 *) -> lognot (logand (logand a b) c)
  | 4 (* nand4 *) -> lognot (logand (logand a b) (logand c d))
  | 5 (* nor2 *) -> lognot (logor a b)
  | 6 (* nor3 *) -> lognot (logor (logor a b) c)
  | 7 (* nor4 *) -> lognot (logor (logor a b) (logor c d))
  | 8 (* aoi21 *) -> lognot (logor (logand a b) c)
  | 9 (* oai21 *) -> lognot (logand (logor a b) c)
  | 10 (* aoi22 *) -> lognot (logor (logand a b) (logand c d))
  | 11 (* oai22 *) -> lognot (logand (logor a b) (logor c d))
  | 12 (* xor2 *) -> logxor a b
  | 13 (* xnor2 *) -> lognot (logxor a b)
  | _ -> raise (Invalid_argument "Logic: unknown kind code")

(* [Nand n] and [Nor n] outside 2..4 have no kind code (-2): fold their
   [k] pins, read through [pin] *)
let wide kind k pin =
  let nand = match kind with Gk.Nand _ -> true | _ -> false in
  let acc = ref (if nand then Int64.minus_one else Int64.zero) in
  for p = 0 to k - 1 do
    acc := if nand then Int64.logand !acc (pin p) else Int64.logor !acc (pin p)
  done;
  Int64.lognot !acc

let word_of_kind kind args =
  let pin i = if i < Array.length args then args.(i) else Int64.zero in
  match Csr.code_of_kind (Netlist.Cell kind) with
  | -2 -> wide kind (Array.length args) pin
  | code -> word code (pin 0) (pin 1) (pin 2) (pin 3)

(* lane [j] is bit [i] of assignment [base + j]; lanes from [total] on
   are zero *)
let assignment_word ~total base i =
  let w = ref Int64.zero in
  for j = 0 to min 63 (total - base - 1) do
    if (base + j) land (1 lsl i) <> 0 then w := Int64.logor !w (Int64.shift_left 1L j)
  done;
  !w

let lane w j = Int64.logand (Int64.shift_right_logical w j) 1L = 1L
let rec lowest_lane w j = if lane w j then j else lowest_lane w (j + 1)
let[@inline] get buf id = Bytes.get_int64_le buf (id lsl 3)
let[@inline] set buf id w = Bytes.set_int64_le buf (id lsl 3) w
let words_for c = Bytes.make (8 * max 1 (Csr.bound c)) '\000'

(* The one evaluator: gates [ids.(lo)] to [ids.(hi - 1)], in topological
   order, read their pins' words from [buf] and store their own; node
   [id] holds [nw] words from slot [id * nw], evaluated lane by lane. *)
let sweep t csr buf nw ids lo hi =
  let kind = Csr.kind_code csr and off = Csr.fanin_off csr and fanin = Csr.fanin csr in
  for i = lo to hi - 1 do
    let id = ids.(i) in
    let o = off.(id) in
    let k = off.(id + 1) - o in
    let dst = id * nw in
    match kind.(id) with
    | -2 ->
      let kind = Netlist.gate_kind t id in
      for w = 0 to nw - 1 do
        set buf (dst + w) (wide kind k (fun p -> get buf ((fanin.(o + p) * nw) + w)))
      done
    | code ->
      let pa = fanin.(o) * nw in
      let pb = if k > 1 then fanin.(o + 1) * nw else -1 in
      let pc = if k > 2 then fanin.(o + 2) * nw else -1 in
      let pd = if k > 3 then fanin.(o + 3) * nw else -1 in
      for w = 0 to nw - 1 do
        let a = get buf (pa + w) in
        let b = if pb >= 0 then get buf (pb + w) else Int64.zero in
        let c = if pc >= 0 then get buf (pc + w) else Int64.zero in
        let d = if pd >= 0 then get buf (pd + w) else Int64.zero in
        set buf (dst + w) (word code a b c d)
      done
  done

(* a netlist set up for whole sweeps of [nw] words per node *)
type sim = { nl : Netlist.t; csr : Csr.t; buf : Bytes.t; nw : int; ins : int array }

let sim t nw =
  let c = Netlist.csr t in
  { nl = t; csr = c; buf = Bytes.create (8 * nw * max 1 (Csr.bound c)); nw;
    ins = Array.of_list (Netlist.inputs t) }

(* input [i] takes [words.(base + w).(i)] in lane word [w] (zero past the
   last chunk); inputs are level 0 of the order *)
let run s words base =
  Array.iteri
    (fun i id ->
      for w = 0 to s.nw - 1 do
        let c = base + w in
        set s.buf ((id * s.nw) + w) (if c < Array.length words then words.(c).(i) else 0L)
      done)
    s.ins;
  sweep s.nl s.csr s.buf s.nw (Csr.node_of s.csr) (Csr.level_off s.csr).(1) (Csr.length s.csr)

let eval_packed t inputs =
  if Array.length inputs <> Netlist.input_count t then
    invalid_arg "Logic.eval_packed: input vector length mismatch";
  let s = sim t 1 in
  run s [| inputs |] 0;
  List.map (fun (id, _) -> (id, get s.buf id)) (Netlist.outputs t)

let eval t inputs =
  if Array.length inputs <> Netlist.input_count t then
    invalid_arg "Logic.eval: input vector length mismatch";
  List.map
    (fun (id, w) -> (id, lane w 0))
    (eval_packed t (Array.map (fun b -> if b then Int64.minus_one else Int64.zero) inputs))

(* maximum input count for exhaustive equivalence *)
let exhaustive_limit = 12

(* chunks a pass evaluates at once, one word each per node *)
let pass_chunks = 8

let equivalent ?(vectors = 512) ?(seed = 0x5EEDL) a b =
  let n_in = Netlist.input_count a and n_out = Netlist.output_count a in
  if n_in <> Netlist.input_count b then Error "input counts differ"
  else if n_out <> Netlist.output_count b then Error "output counts differ"
  else begin
    (* 64 vectors a chunk: every assignment when the input count
       allows, else seeded random words drawn chunk by chunk *)
    let words =
      if n_in <= exhaustive_limit then begin
        let total = 1 lsl n_in in
        Array.init ((total + 63) / 64) (fun c -> Array.init n_in (assignment_word ~total (c * 64)))
      end
      else begin
        let rng = Pops_util.Rng.create seed in
        Array.init
          (Int.max 0 ((vectors + 63) / 64))
          (fun _ -> Array.init n_in (fun _ -> Pops_util.Rng.int64 rng))
      end
    in
    let chunks = Array.length words in
    if chunks = 0 then Ok ()
    else begin
      (* one sweep per netlist per pass; outputs pair up in designation
         order, each output's words differenced into [diff] by chunk *)
      let nw = Int.min chunks pass_chunks in
      let sa = sim a nw and sb = sim b nw in
      let outs_a = Netlist.output_ids a and outs_b = Netlist.output_ids b in
      let diff = Bytes.create (8 * nw) in
      let rec pass base =
        if base >= chunks then Ok ()
        else begin
          run sa words base;
          run sb words base;
          Bytes.fill diff 0 (8 * nw) '\000';
          for r = 0 to n_out - 1 do
            let xa = outs_a.(r) * nw and xb = outs_b.(r) * nw in
            for w = 0 to nw - 1 do
              set diff w
                (Int64.logor (get diff w)
                   (Int64.logxor (get sa.buf (xa + w)) (get sb.buf (xb + w))))
            done
          done;
          (* the lowest chunk that differs, then its lowest lane *)
          let rec first w =
            if w >= nw || base + w >= chunks then pass (base + nw)
            else if get diff w = Int64.zero then first (w + 1)
            else begin
              let j = lowest_lane (get diff w) 0 and v = words.(base + w) in
              Error
                (Printf.sprintf "mismatch on %s"
                   (String.init n_in (fun i -> if lane v.(i) j then '1' else '0')))
            end
          in
          first 0
        end
      in
      pass 0
    end
  end

let signal_probabilities t ?(input_prob = 0.5) () =
  let c = Netlist.csr t in
  let kind = Csr.kind_code c and off = Csr.fanin_off c and fanin = Csr.fanin c in
  (* truth tables: bit [p] of word [p lsr 6] is the output under pin
     assignment [p]; a coded kind's is its word function on the pattern
     masks 0xAAAA 0xCCCC 0xF0F0 0xFF00 *)
  let mask = assignment_word ~total:16 0 in
  let coded =
    Array.init (Array.length Csr.code_kinds) (fun code ->
        [| word code (mask 0) (mask 1) (mask 2) (mask 3) |])
  in
  let probs = Array.make (max 1 (Csr.bound c)) Float.nan in
  List.iter (fun id -> probs.(id) <- input_prob) (Netlist.inputs t);
  for i = (Csr.level_off c).(1) to Csr.length c - 1 do
    let id = (Csr.node_of c).(i) in
    let o = off.(id) in
    let k = off.(id + 1) - o in
    let truth =
      match kind.(id) with
      | -2 ->
        let total = 1 lsl k in
        Array.init ((total + 63) / 64) (fun w ->
            wide (Netlist.gate_kind t id) k (assignment_word ~total (w * 64)))
      | code -> coded.(code)
    in
    (* independence approximation: the weights of the true patterns,
       patterns ascending, pins multiplied in order *)
    let p = ref 0. in
    for pat = 0 to (1 lsl k) - 1 do
      if lane truth.(pat lsr 6) (pat land 63) then begin
        let weight = ref 1. in
        for pin = 0 to k - 1 do
          let q = probs.(fanin.(o + pin)) in
          weight := !weight *. (if pat land (1 lsl pin) <> 0 then q else 1. -. q)
        done;
        p := !p +. !weight
      end
    done;
    probs.(id) <- !p
  done;
  probs

let cone_limit = 16

(* The transitive fan-in of [id], itself included: its primary inputs
   ascending, its gates unordered.  A worklist walk over the fan-ins,
   so a million-gate-deep cone cannot overflow the stack and a cyclic
   netlist does not raise. *)
let cone t id =
  ignore (Netlist.kind t id);
  let seen = Bytes.make (Netlist.id_bound t) '\000' in
  let rec walk support gates = function
    | [] -> (List.sort compare support, gates)
    | x :: rest when Bytes.get seen x <> '\000' -> walk support gates rest
    | x :: rest -> (
      Bytes.set seen x '\001';
      match Netlist.kind t x with
      | Netlist.Primary_input -> walk (x :: support) gates rest
      | Netlist.Cell _ ->
        let rest = Array.fold_left (fun acc f -> f :: acc) rest (Netlist.fanins t x) in
        walk support (x :: gates) rest)
  in
  walk [] [] [ id ]

let cone_support t id = fst (cone t id)

(* [id]'s truth table over [support] (input ids covering the cone), the
   sweep over the cone's gates: bit [p land 63] of word [p lsr 6] is its
   value under assignment [p], bit [i] of [p] assigning [support.(i)];
   tail bits beyond [2^k] are zero *)
let table_over t id support gates =
  let c = Netlist.csr t in
  let gates = Array.of_list gates in
  Array.sort (fun x y -> Int.compare (Csr.pos c).(x) (Csr.pos c).(y)) gates;
  let buf = words_for c in
  let total = 1 lsl Array.length support in
  Array.init ((total + 63) / 64) (fun w ->
      Array.iteri (fun i pid -> set buf pid (assignment_word ~total (w * 64) i)) support;
      sweep t c buf 1 gates 0 (Array.length gates);
      let live = total - (w * 64) in
      if live >= 64 then get buf id
      else Int64.logand (get buf id) (Int64.sub (Int64.shift_left 1L live) 1L))

let cone_function t id =
  let support, gates = cone t id in
  let k = List.length support in
  if k > cone_limit then
    invalid_arg
      (Printf.sprintf "Logic.cone_function: support %d exceeds cone_limit %d" k cone_limit);
  (support, table_over t id (Array.of_list support) gates)

let cone_equivalent a na b nb =
  if Netlist.input_count a <> Netlist.input_count b then Error "input counts differ"
  else begin
    (* supports are matched by primary-input position, so the check also
       works across structurally unrelated netlists *)
    let positions t (support, _) =
      let pos = Array.make (Netlist.id_bound t) (-1) in
      List.iteri (fun i id -> pos.(id) <- i) (Netlist.inputs t);
      List.map (fun id -> pos.(id)) support
    in
    let cone_a = cone a na and cone_b = cone b nb in
    let support = List.sort_uniq compare (positions a cone_a @ positions b cone_b) in
    let k = List.length support in
    if k > cone_limit then
      Error (Printf.sprintf "union support %d exceeds cone_limit %d" k cone_limit)
    else begin
      let table t id (_, gates) =
        let ins = Array.of_list (Netlist.inputs t) in
        table_over t id (Array.of_list (List.map (fun p -> ins.(p)) support)) gates
      in
      let ta = table a na cone_a and tb = table b nb cone_b in
      let rec first w =
        if w = Array.length ta then Ok ()
        else if ta.(w) = tb.(w) then first (w + 1)
        else begin
          let pat = (w * 64) + lowest_lane (Int64.logxor ta.(w) tb.(w)) 0 in
          Error
            (Printf.sprintf "cones differ on assignment %s (input positions %s)"
               (String.init k (fun i -> if pat land (1 lsl i) <> 0 then '1' else '0'))
               (String.concat "," (List.map string_of_int support)))
        end
      in
      first 0
    end
  end
