module Gk = Pops_cell.Gate_kind
module Diag = Pops_robust.Diag
module Watch = Pops_robust.Watch
module Fault = Pops_robust.Fault

type names = (string * int) list

(* ------------------------------------------------------------------ *)
(* parsing                                                             *)
(* ------------------------------------------------------------------ *)

(* Intake is one scan of the text and one worklist build.

   The scan walks the text by index, a line at a time, and records each
   statement in flat arrays: its line, its kind and its signals, as ids
   into one interning table (each distinct name is copied out of the
   text once).  No line list, no substring per token.

   The build defines the sources (INPUTs and DFF outputs) in line
   order, then builds every gate once its arguments are defined, in the
   order a fixed point of line-order passes over the pending gates
   would: pass number first, then line.  A gate readied by a definition
   at (pass p, line l) joins pass p when its own line comes after l,
   else pass p + 1.  That order fixes the node ids, so it is kept
   exactly, and it costs the same whatever order the text is in
   (docs/performance.md, "Intake"). *)

(* a statement's kind: the two declarations and the gate operators,
   aliases folded (constant constructors only, so the kind array holds
   immediates) *)
type kind =
  | Input
  | Output
  | Not
  | Buff
  | Nand
  | And
  | Nor
  | Or
  | Xor
  | Xnor
  | Aoi21
  | Oai21
  | Aoi22
  | Oai22
  | Dff
  | Unknown

let operators =
  [ ("NOT", Not); ("INV", Not); ("BUF", Buff); ("BUFF", Buff); ("NAND", Nand);
    ("AND", And); ("NOR", Nor); ("OR", Or); ("XOR", Xor); ("XNOR", Xnor);
    ("AOI21", Aoi21); ("OAI21", Oai21); ("AOI22", Aoi22); ("OAI22", Oai22);
    ("DFF", Dff) ]

(* --- slices of the text --------------------------------------------- *)

(* a slice is [a, b) of the text; blanks are String.trim's *)
let is_blank c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'

let rec skip_blank s a b =
  if a < b && is_blank (String.unsafe_get s a) then skip_blank s (a + 1) b else a

let rec drop_blank s a b =
  if b > a && is_blank (String.unsafe_get s (b - 1)) then drop_blank s a (b - 1)
  else b

let rec index_in s c a b =
  if a >= b then -1 else if String.unsafe_get s a = c then a else index_in s c (a + 1) b

let rec rindex_in s c a b =
  if b <= a then -1
  else if String.unsafe_get s (b - 1) = c then b - 1
  else rindex_in s c a (b - 1)

(* the text from [a] on matches [w] from its [i]th byte on, up to case
   ([w] is upper case) or exactly *)
let rec spells_from s a w i =
  i = String.length w
  || Char.uppercase_ascii (String.unsafe_get s (a + i)) = String.unsafe_get w i
     && spells_from s a w (i + 1)

let rec same_from s a w i =
  i = String.length w
  || (String.unsafe_get s (a + i) = String.unsafe_get w i && same_from s a w (i + 1))

let spells s a b w = b - a = String.length w && spells_from s a w 0
let same_slice s a b w = b - a = String.length w && same_from s a w 0

let rec operator_in s a b = function
  | [] -> Unknown
  | (w, k) :: rest -> if spells s a b w then k else operator_in s a b rest

(* --- the interning table -------------------------------------------- *)

(* the growable arrays here double *)
let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* open addressing on a name's hash: a slot holds id + 1 (0 is free),
   and the slot array is kept at most half full.  A name is hashed over
   its non-blank bytes, so a token hashes as it is read, before it is
   trimmed. *)
type interner = {
  text : string;
  mutable names : string array;  (* by id *)
  mutable hashes : int array;  (* by id *)
  mutable count : int;
  mutable slots : int array;  (* length a power of two *)
  mutable stop : int;  (* where the last token read ended *)
}

let mix h =
  let h = h * 0x1E3779B97F4A7C15 in
  (h lxor (h lsr 29)) land max_int

let rec free_slot slots mask i =
  if Array.unsafe_get slots i = 0 then i else free_slot slots mask ((i + 1) land mask)

let rehash it =
  let slots = Array.make (2 * Array.length it.slots) 0 in
  let mask = Array.length slots - 1 in
  for id = 0 to it.count - 1 do
    slots.(free_slot slots mask (it.hashes.(id) land mask)) <- id + 1
  done;
  it.slots <- slots

let add_name it h a b slot =
  let id = it.count in
  if id = Array.length it.names then begin
    it.names <- grow it.names "";
    it.hashes <- grow it.hashes 0
  end;
  it.names.(id) <- String.sub it.text a (b - a);
  it.hashes.(id) <- h;
  it.slots.(slot) <- id + 1;
  it.count <- id + 1;
  if 2 * it.count > Array.length it.slots then rehash it;
  id

let rec probe it h a b mask i =
  match Array.unsafe_get it.slots i with
  | 0 -> add_name it h a b i
  | v ->
    let id = v - 1 in
    if it.hashes.(id) = h && same_slice it.text a b it.names.(id) then id
    else probe it h a b mask ((i + 1) land mask)

(* the id of the name in the token from [i] to the first [sep] before
   [b] (or [b]), trimmed; [it.stop] is left at that end *)
let intern_token it sep i b =
  let s = it.text in
  let h = ref 0 and first = ref (-1) and last = ref i and j = ref i in
  while !j < b && String.unsafe_get s !j <> sep do
    let c = String.unsafe_get s !j in
    if not (is_blank c) then begin
      h := (!h * 31) + Char.code c;
      if !first < 0 then first := !j;
      last := !j + 1
    end;
    incr j
  done;
  it.stop <- !j;
  let h = mix !h and mask = Array.length it.slots - 1 in
  if !first < 0 then probe it h !j !j mask (h land mask)
  else probe it h !first !last mask (h land mask)

(* --- the statement arrays ------------------------------------------- *)

(* statements in line order; statement [i]'s argument names are
   [args.(arg_end.(i - 1)) .. args.(arg_end.(i) - 1)] (from 0 for the
   first).  A gate's annotations sit in [cin] and [wire] where its
   [annot] bits (1 cin, 2 wire) say so; an unknown operator's upper-cased
   spelling lives aside, by statement index. *)
type stmts = {
  mutable n : int;
  mutable line : int array;
  mutable kind : kind array;
  mutable target : int array;  (* the declared signal, or the gate's target *)
  mutable arg_end : int array;
  mutable annot : Bytes.t;
  mutable cin : float array;
  mutable wire : float array;
  mutable args : int array;
  mutable n_args : int;
  spelling : (int, string) Hashtbl.t;
}

let stmts cap =
  { n = 0; line = Array.make cap 0; kind = Array.make cap Input;
    target = Array.make cap 0; arg_end = Array.make cap 0; annot = Bytes.make cap '\000';
    cin = Array.make cap 0.; wire = Array.make cap 0.; args = Array.make cap 0;
    n_args = 0; spelling = Hashtbl.create 1 }

let arg_lo st i = if i = 0 then 0 else st.arg_end.(i - 1)

let push_arg st name =
  if st.n_args = Array.length st.args then st.args <- grow st.args 0;
  st.args.(st.n_args) <- name;
  st.n_args <- st.n_args + 1

(* a statement whose arguments are pushed already; its index *)
let push_stmt st lineno kind target =
  let i = st.n in
  if i = Array.length st.line then begin
    st.line <- grow st.line 0;
    st.kind <- grow st.kind Input;
    st.target <- grow st.target 0;
    st.arg_end <- grow st.arg_end 0;
    st.annot <- Bytes.extend st.annot 0 i;
    st.cin <- grow st.cin 0.;
    st.wire <- grow st.wire 0.
  end;
  st.line.(i) <- lineno;
  st.kind.(i) <- kind;
  st.target.(i) <- target;
  st.arg_end.(i) <- st.n_args;
  Bytes.unsafe_set st.annot i '\000';
  st.n <- i + 1;
  i

(* --- the scan ------------------------------------------------------- *)

exception Syntax of string

let pow10 =
  let p = Array.make 16 1. in
  for k = 1 to 15 do
    p.(k) <- p.(k - 1) *. 10.
  done;
  p

(* float_of_string_opt of [a, b).  A plain decimal — digits and at most
   one point, 15 digits at most — is one correctly rounded division of
   exact doubles, which is what strtod returns for it too; anything else
   goes to float_of_string_opt itself. *)
let float_in s a b =
  let m = ref 0 and digits = ref 0 and frac = ref (-1) and i = ref a in
  while
    !i < b
    &&
    match String.unsafe_get s !i with
    | '0' .. '9' as c ->
      m := (!m * 10) + Char.code c - 48;
      incr digits;
      if !frac >= 0 then incr frac;
      true
    | '.' when !frac < 0 ->
      frac := 0;
      true
    | _ -> false
  do
    incr i
  done;
  if !i = b && !digits >= 1 && !digits <= 15 then
    Some (float_of_int !m /. pow10.(max 0 !frac))
  else float_of_string_opt (String.sub s a (b - a))

(* "# cin=5.6 wire=1.2": per key, the first space-separated, trimmed
   token of the comment [a, b) that is the key followed by a float *)
let rec annotate st i s a b =
  let j = match index_in s ' ' a b with -1 -> b | j -> j in
  let ta = skip_blank s a j in
  let tb = drop_blank s ta j in
  let flags = Bytes.get_uint8 st.annot i in
  (if flags land 1 = 0 && tb - ta > 4 && same_slice s ta (ta + 4) "cin=" then
     match float_in s (ta + 4) tb with
     | Some v ->
       st.cin.(i) <- v;
       Bytes.set_uint8 st.annot i (flags lor 1)
     | None -> ()
   else if flags land 2 = 0 && tb - ta > 5 && same_slice s ta (ta + 5) "wire=" then
     match float_in s (ta + 5) tb with
     | Some v ->
       st.wire.(i) <- v;
       Bytes.set_uint8 st.annot i (flags lor 2)
     | None -> ());
  if j < b then annotate st i s (j + 1) b

(* the comma-separated, trimmed arguments in [i, q) *)
let rec push_args it st i q =
  push_arg st (intern_token it ',' i q);
  if it.stop < q then push_args it st (it.stop + 1) q

(* one statement: the line's code is [a, b), trimmed and not empty; its
   comment, if any, is [hash, e) *)
let statement it st s lineno a b hash e =
  match index_in s '=' a b with
  | -1 ->
    let malformed () = raise (Syntax "expected INPUT(..), OUTPUT(..) or a gate assignment") in
    let p = index_in s '(' a b in
    if p < 0 then malformed ();
    let q = rindex_in s ')' (p + 1) b in
    if q < 0 then malformed ();
    let ob = drop_blank s a p in
    let kind =
      if spells s a ob "INPUT" then Input
      else if spells s a ob "OUTPUT" then Output
      else
        raise
          (Syntax ("unknown statement " ^ String.uppercase_ascii (String.sub s a (ob - a))))
    in
    let xa = skip_blank s (p + 1) q in
    let xb = drop_blank s xa q in
    if xa = xb || index_in s ',' xa xb >= 0 then raise (Syntax "INPUT/OUTPUT take one signal");
    ignore (push_stmt st lineno kind (intern_token it '\n' xa xb))
  | eq ->
    (* [a] is not blank *)
    if eq = a then raise (Syntax "empty target signal");
    let ra = skip_blank s (eq + 1) b in
    let no_call () = raise (Syntax "expected OP(arg, ...) on the right-hand side") in
    let p = index_in s '(' ra b in
    if p < 0 then no_call ();
    let q = rindex_in s ')' (p + 1) b in
    if q < 0 then no_call ();
    let ob = drop_blank s ra p in
    let kind = operator_in s ra ob operators in
    let target = intern_token it '\n' a eq in
    if skip_blank s (p + 1) q < q then push_args it st (p + 1) q;
    let i = push_stmt st lineno kind target in
    if kind = Unknown then
      Hashtbl.replace st.spelling i (String.uppercase_ascii (String.sub s ra (ob - ra)));
    if hash >= 0 then annotate st i s hash e

(* every line from [i] on is blank or a comment *)
let rec rest_blank s i =
  if i >= String.length s then true
  else
    match String.unsafe_get s i with
    | '#' -> (
      match String.index_from_opt s i '\n' with
      | None -> true
      | Some j -> rest_blank s (j + 1))
    | c -> is_blank c && rest_blank s (i + 1)

(* an error on the last statement-bearing line of the input, on a line
   with an unclosed call or dangling [=]/[,], is a truncated file rather
   than a typo — give it the dedicated code and hint.  [a, b) is the
   line's trimmed code, [e] its end. *)
let looks_truncated s a b e =
  let opens = ref 0 and closes = ref 0 in
  for i = a to b - 1 do
    match String.unsafe_get s i with
    | '(' -> incr opens
    | ')' -> incr closes
    | _ -> ()
  done;
  (!opens > !closes || (b > a && (s.[b - 1] = '=' || s.[b - 1] = ',')))
  && rest_blank s (e + 1)

let line_subject lineno = Printf.sprintf "line %d" lineno

(* the statements of [s], or the first syntax error in line order *)
let scan s =
  let len = String.length s in
  (* sized for ~20 bytes a statement and a name every 40 bytes *)
  let cap = 16 + (len / 40) in
  let slots = ref 64 in
  while !slots < 2 * cap do
    slots := 2 * !slots
  done;
  let it =
    { text = s; names = Array.make cap ""; hashes = Array.make cap 0; count = 0;
      slots = Array.make !slots 0; stop = 0 }
  in
  let st = stmts (2 * cap) in
  let error = ref None and pos = ref 0 and lineno = ref 1 in
  while Option.is_none !error && !pos <= len do
    (* the line [a, e): its comment starts at the first '#' inside it *)
    let a = !pos in
    let e = ref a and hash = ref (-1) in
    while !e < len && String.unsafe_get s !e <> '\n' do
      if !hash < 0 && String.unsafe_get s !e = '#' then hash := !e;
      incr e
    done;
    let e = !e in
    let code_end = if !hash < 0 then e else !hash in
    let ca = skip_blank s a code_end in
    let cb = drop_blank s ca code_end in
    (if ca < cb then
       try statement it st s !lineno ca cb !hash e
       with Syntax msg ->
         let subject = line_subject !lineno in
         error :=
           Some
             (if looks_truncated s ca cb e then Diag.make Diag.Bench_truncated ~subject msg
              else Diag.make Diag.Bench_syntax ~subject msg));
    pos := e + 1;
    incr lineno
  done;
  match !error with Some d -> Error d | None -> Ok (it, st)

(* --- the build ------------------------------------------------------ *)

(* gate construction with tree decomposition for wide fan-in *)
let rec build_nand t args =
  match List.length args with
  | 0 -> Error "NAND with no inputs"
  | 1 -> Ok (Netlist.add_gate t Gk.Inv [| List.hd args |])
  | n when n <= 4 -> Ok (Netlist.add_gate t (Gk.Nand n) (Array.of_list args))
  | n ->
    let left, right = (List.filteri (fun i _ -> i < n / 2) args,
                       List.filteri (fun i _ -> i >= n / 2) args) in
    Result.bind (build_and t left) (fun a ->
        Result.bind (build_and t right) (fun b ->
            Ok (Netlist.add_gate t (Gk.Nand 2) [| a; b |])))

and build_and t args =
  match args with
  | [ single ] -> Ok single
  | _ -> Result.map (fun g -> Netlist.add_gate t Gk.Inv [| g |]) (build_nand t args)

let rec build_nor t args =
  match List.length args with
  | 0 -> Error "NOR with no inputs"
  | 1 -> Ok (Netlist.add_gate t Gk.Inv [| List.hd args |])
  | n when n <= 4 -> Ok (Netlist.add_gate t (Gk.Nor n) (Array.of_list args))
  | n ->
    let left, right = (List.filteri (fun i _ -> i < n / 2) args,
                       List.filteri (fun i _ -> i >= n / 2) args) in
    Result.bind (build_or t left) (fun a ->
        Result.bind (build_or t right) (fun b ->
            Ok (Netlist.add_gate t (Gk.Nor 2) [| a; b |])))

and build_or t args =
  match args with
  | [ single ] -> Ok single
  | _ -> Result.map (fun g -> Netlist.add_gate t Gk.Inv [| g |]) (build_nor t args)

let build_xor t args =
  match args with
  | [] -> Error "XOR with no inputs"
  | first :: rest ->
    Ok (List.fold_left (fun acc a -> Netlist.add_gate t Gk.Xor2 [| acc; a |]) first rest)

let invert t = Result.map (fun g -> Netlist.add_gate t Gk.Inv [| g |])

(* the gates that are not one cell (see [single_cell]): arity errors,
   wide NAND/NOR trees, AND/OR with their output inverter, XOR chains *)
let build_gate t kind args =
  match (kind, args) with
  | Not, _ -> Error "NOT takes one input"
  | Buff, _ -> Error "BUFF takes one input"
  | Nand, _ -> build_nand t args
  | And, [ _ ] -> build_and t args
  | And, _ -> invert t (build_nand t args)
  | Nor, _ -> build_nor t args
  | Or, [ _ ] -> build_or t args
  | Or, _ -> invert t (build_nor t args)
  | Xor, _ -> build_xor t args
  | Xnor, _ -> invert t (build_xor t args)
  | Aoi21, _ -> Error "unsupported gate AOI21"
  | Oai21, _ -> Error "unsupported gate OAI21"
  | Aoi22, _ -> Error "unsupported gate AOI22"
  | Oai22, _ -> Error "unsupported gate OAI22"
  | (Input | Output | Dff | Unknown), _ -> invalid_arg "Bench_io.build_gate: not a gate"

let is_gate = function Input | Output | Dff -> false | _ -> true

(* the one cell a gate statement with [n] arguments is, when it is one;
   [build_gate] builds the others *)
let single_cell kind n =
  match (kind, n) with
  | (Not | Nand | Nor), 1 -> Some Gk.Inv
  | Buff, 1 -> Some Gk.Buf
  | Nand, (2 | 3 | 4) -> Some (Gk.Nand n)
  | Nor, (2 | 3 | 4) -> Some (Gk.Nor n)
  | Xor, 2 -> Some Gk.Xor2
  | Xnor, 2 -> Some Gk.Xnor2
  | Aoi21, 3 -> Some Gk.Aoi21
  | Oai21, 3 -> Some Gk.Oai21
  | Aoi22, 4 -> Some Gk.Aoi22
  | Oai22, 4 -> Some Gk.Oai22
  | _ -> None

(* the gates waiting on undefined arguments: each waiting argument slot
   is linked into its name's list *)
type waiters = {
  missing : int array;  (* by statement: its slots still undefined *)
  head : int array;  (* by name: the last slot linked, -1 none *)
  next : int array;  (* by slot: the slot linked before it *)
  stmt : int array;  (* by slot: its statement *)
}

(* a binary min-heap of statement indices: the rest of the current pass *)
type heap = { mutable h : int array; mutable size : int }

let heap_push q x =
  if q.size = Array.length q.h then q.h <- grow q.h 0;
  let rec up i =
    let parent = (i - 1) / 2 in
    if i > 0 && q.h.(parent) > x then begin
      q.h.(i) <- q.h.(parent);
      up parent
    end
    else q.h.(i) <- x
  in
  up q.size;
  q.size <- q.size + 1

let heap_pop q =
  let top = q.h.(0) in
  q.size <- q.size - 1;
  let x = q.h.(q.size) in
  let rec down i =
    let l = (2 * i) + 1 in
    if l >= q.size then q.h.(i) <- x
    else
      let c = if l + 1 < q.size && q.h.(l + 1) < q.h.(l) then l + 1 else l in
      if q.h.(c) < x then begin
        q.h.(i) <- q.h.(c);
        down c
      end
      else q.h.(i) <- x
  in
  if q.size > 0 then down 0;
  top

exception Stop of Diag.t

let stop lineno fmt =
  Printf.ksprintf
    (fun m -> raise (Stop (Diag.make Diag.Bench_syntax ~subject:(line_subject lineno) m)))
    fmt

(* the diagnostic for gates that were never built: the first one, in
   line order, either reads an undefined signal or sits on a loop of
   stuck gates, which is then walked and named *)
let stuck_diag st names node missing =
  let n_names = Array.length node in
  (* name -> the first stuck gate, in line order, that defines it *)
  let gate_of = Array.make n_names (-1) in
  let first = ref (-1) in
  for i = st.n - 1 downto 0 do
    if is_gate st.kind.(i) && missing.(i) > 0 then begin
      gate_of.(st.target.(i)) <- i;
      first := i
    end
  done;
  let missing_of i =
    let lo = arg_lo st i in
    List.filter
      (fun nm -> node.(nm) < 0)
      (List.init (st.arg_end.(i) - lo) (fun k -> st.args.(lo + k)))
  in
  let undefined i missing =
    Diag.makef Diag.Bench_syntax ~subject:(line_subject st.line.(i))
      "%s depends on undefined signal(s) %s" names.(st.target.(i))
      (String.concat ", " (List.map (fun nm -> names.(nm)) missing))
  in
  let i0 = !first in
  let missing0 = missing_of i0 in
  if List.exists (fun nm -> gate_of.(nm) < 0) missing0 then undefined i0 missing0
  else begin
    (* the dependency walk (upstream), each name's position on it *)
    let at = Array.make n_names (-1) and trail = Array.make n_names 0 in
    let rec walk len name =
      if at.(name) >= 0 then begin
        (* reversed, the walk reads in signal-flow order *)
        let cycle = List.init (len - at.(name)) (fun k -> names.(trail.(len - 1 - k))) in
        Diag.makef Diag.Netlist_cycle ~subject:(line_subject st.line.(gate_of.(name)))
          "combinational cycle: %s"
          (String.concat " -> " (cycle @ [ List.hd cycle ]))
      end
      else
        match gate_of.(name) with
        | -1 -> undefined i0 missing0
        | g -> (
          let missing = missing_of g in
          match List.find_opt (fun nm -> gate_of.(nm) >= 0) missing with
          | Some next ->
            at.(name) <- len;
            trail.(len) <- name;
            walk (len + 1) next
          | None -> undefined g missing)
    in
    walk 0 st.target.(i0)
  end

(* the ids [0, count) sorted by String.compare of their names: an LSD
   radix sort on each name's first seven bytes (big-endian, zero
   padded), skipping the bytes every name shares, then String.compare
   inside each run of equal prefixes *)
let sorted_ids names count =
  let key = Array.make count 0 and differ = ref 0 in
  for id = 0 to count - 1 do
    let w = names.(id) in
    let k = ref 0 in
    for i = 0 to 6 do
      k := (!k lsl 8) lor if i < String.length w then Char.code (String.unsafe_get w i) else 0
    done;
    key.(id) <- !k;
    differ := !differ lor (!k lxor key.(0))
  done;
  let ids = ref (Array.init count Fun.id) and spare = ref (Array.make count 0) in
  let start = Array.make 257 0 in
  for pass = 0 to 6 do
    let shift = 8 * pass in
    if (!differ lsr shift) land 255 <> 0 then begin
      let src = !ids and dst = !spare in
      Array.fill start 0 257 0;
      for k = 0 to count - 1 do
        let d = ((key.(src.(k)) lsr shift) land 255) + 1 in
        start.(d) <- start.(d) + 1
      done;
      for d = 1 to 256 do
        start.(d) <- start.(d) + start.(d - 1)
      done;
      for k = 0 to count - 1 do
        let id = src.(k) in
        let d = (key.(id) lsr shift) land 255 in
        dst.(start.(d)) <- id;
        start.(d) <- start.(d) + 1
      done;
      spare := src;
      ids := dst
    end
  done;
  let ids = !ids in
  let i = ref 0 in
  while !i < count do
    let j = ref (!i + 1) in
    while !j < count && key.(ids.(!j)) = key.(ids.(!i)) do
      incr j
    done;
    if !j - !i > 1 then begin
      let run = Array.sub ids !i (!j - !i) in
      Array.stable_sort (fun a b -> String.compare names.(a) names.(b)) run;
      Array.blit run 0 ids !i (!j - !i)
    end;
    i := !j
  done;
  ids

(* the netlist the statements describe, node ids in (pass, line) order *)
let build tech ~out_load it st =
  (* every INPUT, DFF and gate line makes a node (a wide gate several);
     a parsed netlist is usually edited next, so leave an eighth spare *)
  let nodes = ref 0 in
  for i = 0 to st.n - 1 do
    if st.kind.(i) <> Output then incr nodes
  done;
  let t = Netlist.create ~capacity:(!nodes + (!nodes / 8)) tech in
  let names = it.names and n_names = max 1 it.count in
  (* name -> the node driving it, -1 while undefined *)
  let node = Array.make n_names (-1) in
  let define name id lineno =
    if node.(name) >= 0 then stop lineno "%s defined twice" names.(name);
    node.(name) <- id
  in
  (* inputs and DFF outputs become sources immediately *)
  for i = 0 to st.n - 1 do
    match st.kind.(i) with
    | Input | Dff -> define st.target.(i) (Netlist.add_input t) st.line.(i)
    | _ -> ()
  done;
  let waiting = ref None in
  let pass = { h = Array.make 64 0; size = 0 } and later = ref [] in
  let gates = ref 0 and built = ref 0 in
  let rec arg_nodes lo k acc =
    if k < lo then acc else arg_nodes lo (k - 1) (node.(st.args.(k)) :: acc)
  in
  let build_one i =
    let lineno = st.line.(i) and lo = arg_lo st i and hi = st.arg_end.(i) in
    let sized = Bytes.get_uint8 st.annot i land 1 <> 0 in
    let id, unsized =
      match single_cell st.kind.(i) (hi - lo) with
      | Some cell ->
        let fanins = Array.make (hi - lo) 0 in
        for k = lo to hi - 1 do
          fanins.(k - lo) <- node.(st.args.(k))
        done;
        (* a positive size goes in with the cell; any other is set after
           it, to fail as Netlist.set_cin does *)
        if sized && st.cin.(i) > 0. then (Netlist.add_gate ~cin:st.cin.(i) t cell fanins, false)
        else (Netlist.add_gate t cell fanins, sized)
      | None -> (
        let result =
          match st.kind.(i) with
          | Unknown -> Error ("unsupported gate " ^ Hashtbl.find st.spelling i)
          | kind -> build_gate t kind (arg_nodes lo (hi - 1) [])
        in
        match result with Error msg -> stop lineno "%s" msg | Ok id -> (id, sized))
    in
    incr built;
    if unsized then Netlist.set_cin t id st.cin.(i);
    if Bytes.get_uint8 st.annot i land 2 <> 0 then Netlist.set_wire t id st.wire.(i);
    let name = st.target.(i) in
    define name id lineno;
    match !waiting with
    | None -> ()
    | Some w ->
      (* readied gates after this line join this pass, the others the
         next one *)
      let k = ref w.head.(name) in
      while !k >= 0 do
        let j = w.stmt.(!k) in
        w.missing.(j) <- w.missing.(j) - 1;
        if w.missing.(j) = 0 then
          if j > i then heap_push pass j else later := j :: !later;
        k := w.next.(!k)
      done
  in
  (* pass 1 is this sweep: a gate whose arguments are all defined when
     the sweep reaches it is built there, the others start waiting *)
  for i = 0 to st.n - 1 do
    if is_gate st.kind.(i) then begin
      incr gates;
      let lo = arg_lo st i and hi = st.arg_end.(i) in
      let undefined = ref 0 in
      for k = lo to hi - 1 do
        if node.(st.args.(k)) < 0 then incr undefined
      done;
      if !undefined = 0 then build_one i
      else begin
        let w =
          match !waiting with
          | Some w -> w
          | None ->
            let w =
              { missing = Array.make st.n 0; head = Array.make n_names (-1);
                next = Array.make (max 1 st.n_args) (-1);
                stmt = Array.make (max 1 st.n_args) 0 }
            in
            waiting := Some w;
            w
        in
        w.missing.(i) <- !undefined;
        for k = lo to hi - 1 do
          let nm = st.args.(k) in
          if node.(nm) < 0 then begin
            w.next.(k) <- w.head.(nm);
            w.head.(nm) <- k;
            w.stmt.(k) <- i
          end
        done
      end
    end
  done;
  (* passes 2, 3, ...: each in line order *)
  while !later <> [] do
    List.iter (heap_push pass) !later;
    later := [];
    while pass.size > 0 do
      build_one (heap_pop pass)
    done
  done;
  (match !waiting with
  | Some w when !built < !gates -> raise (Stop (stuck_diag st names node w.missing))
  | _ -> ());
  for i = 0 to st.n - 1 do
    let lineno = st.line.(i) in
    match st.kind.(i) with
    | Output ->
      let name = st.target.(i) in
      if node.(name) < 0 then stop lineno "OUTPUT(%s) never defined" names.(name);
      Netlist.set_output t node.(name) ~load:out_load
    | Dff ->
      (* the DFF input is a pseudo primary output *)
      let lo = arg_lo st i in
      if st.arg_end.(i) - lo <> 1 then stop lineno "DFF takes one input";
      let d = st.args.(lo) in
      if node.(d) < 0 then stop lineno "DFF input %s undefined" names.(d);
      Netlist.set_output t node.(d) ~load:out_load
    | _ -> ()
  done;
  let ids = sorted_ids names it.count in
  let pairs = ref [] in
  for k = it.count - 1 downto 0 do
    pairs := (names.(ids.(k)), node.(ids.(k))) :: !pairs
  done;
  (t, !pairs)

(* id -> signal name; a node with several names gets the last in list
   order, an unnamed one [n<id>] *)
let name_fn names =
  let bound = List.fold_left (fun m (_, id) -> max m (id + 1)) 0 names in
  let by_id = Array.make bound None in
  List.iter (fun (name, id) -> if id >= 0 then by_id.(id) <- Some name) names;
  fun id ->
    match if id >= 0 && id < bound then by_id.(id) else None with
    | Some n -> n
    | None -> Printf.sprintf "n%d" id

(* the parse and its one validation sweep: the sweep's first error fails
   the parse, its warnings come back named *)
let parse_checked tech ?out_load text =
  let out_load =
    Option.value out_load ~default:(4. *. tech.Pops_process.Tech.cmin)
  in
  let text =
    (* deterministic fault: drop the tail of the input mid-statement *)
    if Fault.fire "bench.truncate" && String.length text > 1 then begin
      Watch.emit
        (Diag.make Diag.Fault_injected ~severity:Diag.Info
           ~subject:"bench.truncate" "input truncated (fault injection)");
      String.sub text 0 (String.length text * 2 / 3)
    end
    else text
  in
  match scan text with
  | Error d -> Error d
  | Ok (it, st) -> (
    match build tech ~out_load it st with
    | exception Stop d -> Error d
    | t, names -> (
      let render = lazy (name_fn names) in
      let diags = Netlist.validate_diags ~name:(fun id -> Lazy.force render id) t in
      match List.find_opt (fun d -> d.Diag.severity = Diag.Error) diags with
      | Some d ->
        Error
          (Diag.makef Diag.Internal "invalid netlist after parse: %s" (Diag.one_line d))
      | None -> Ok (t, names, diags)))

let parse_diag tech ?out_load text =
  Result.map (fun (t, names, _) -> (t, names)) (parse_checked tech ?out_load text)

let parse_o tech ?out_load text =
  match parse_checked tech ?out_load text with
  | Ok (t, names, warnings) ->
    (* quality warnings — zero-fanout gates and friends — surface as a
       degradation instead of hiding *)
    Pops_robust.Outcome.make (t, names) warnings
  | Error d -> Pops_robust.Outcome.Failed d
  | exception Diag.Fatal d -> Pops_robust.Outcome.Failed d
  | exception e ->
    Pops_robust.Outcome.Failed
      (Diag.makef Diag.Internal "Bench_io.parse raised: %s"
         (Printexc.to_string e))

let parse_file_o tech ?out_load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse_o tech ?out_load text
  | exception Sys_error msg ->
    Pops_robust.Outcome.Failed
      (Diag.make Diag.Invalid_input msg
         ~hint:"check the .bench path and permissions")

(* ------------------------------------------------------------------ *)
(* printing                                                            *)
(* ------------------------------------------------------------------ *)

let to_string ?(names = []) t =
  let cmin = (Netlist.tech t).Pops_process.Tech.cmin in
  let name_of = name_fn names in
  let buf = Buffer.create 1024 in
  let annotations id =
    let parts = ref [] and wire = Netlist.wire t id and cin = Netlist.cin t id in
    if wire > 1e-9 then parts := Printf.sprintf "wire=%.3f" wire :: !parts;
    if Float.abs (cin -. cmin) > 1e-9 then parts := Printf.sprintf "cin=%.3f" cin :: !parts;
    if !parts = [] then "" else " # " ^ String.concat " " !parts
  in
  List.iter
    (fun id -> Buffer.add_string buf (Printf.sprintf "INPUT(%s)\n" (name_of id)))
    (Netlist.inputs t);
  List.iter
    (fun (id, _) -> Buffer.add_string buf (Printf.sprintf "OUTPUT(%s)\n" (name_of id)))
    (Netlist.outputs t);
  List.iter
    (fun id ->
      match Netlist.kind t id with
      | Netlist.Primary_input -> ()
      | Netlist.Cell kind ->
        let args = Array.to_list (Array.map name_of (Netlist.fanins t id)) in
        let line op = Printf.sprintf "%s = %s(%s)%s\n" (name_of id) op
            (String.concat ", " args) (annotations id) in
        (match kind with
        | Gk.Inv -> Buffer.add_string buf (line "NOT")
        | Gk.Buf -> Buffer.add_string buf (line "BUFF")
        | Gk.Nand _ -> Buffer.add_string buf (line "NAND")
        | Gk.Nor _ -> Buffer.add_string buf (line "NOR")
        | Gk.Xor2 -> Buffer.add_string buf (line "XOR")
        | Gk.Xnor2 -> Buffer.add_string buf (line "XNOR")
        | Gk.Aoi21 -> Buffer.add_string buf (line "AOI21")
        | Gk.Oai21 -> Buffer.add_string buf (line "OAI21")
        | Gk.Aoi22 -> Buffer.add_string buf (line "AOI22")
        | Gk.Oai22 -> Buffer.add_string buf (line "OAI22")))
    (Netlist.topological_order t);
  Buffer.contents buf

let write_file ?names t path =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string ?names t))
