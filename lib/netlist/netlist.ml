module Gk = Pops_cell.Gate_kind
module Diag = Pops_robust.Diag
module Vt = Pops_process.Vt
module Imap = Map.Make (Int)

type node_kind = Primary_input | Cell of Gk.t

type node = {
  id : int;
  kind : node_kind;
  fanins : int array;
  fanouts : int list;
  cin : float;
  wire : float;
  vt : Vt.t;
}

(* dense encoding of the cell kinds the library can hold; observers
   index per-kind coefficient tables with it instead of scanning the
   library's association list per node *)
let code_kinds =
  [|
    Gk.Inv; Gk.Buf; Gk.Nand 2; Gk.Nand 3; Gk.Nand 4; Gk.Nor 2; Gk.Nor 3;
    Gk.Nor 4; Gk.Aoi21; Gk.Oai21; Gk.Aoi22; Gk.Oai22; Gk.Xor2; Gk.Xnor2;
  |]

let code_cells = Array.map (fun k -> Cell k) code_kinds
let input_code = -1
let wide_code = -2
let dead_code = -3

let code_of_kind = function
  | Primary_input -> input_code
  | Cell k -> (
    match k with
    | Gk.Inv -> 0
    | Gk.Buf -> 1
    | Gk.Nand 2 -> 2
    | Gk.Nand 3 -> 3
    | Gk.Nand 4 -> 4
    | Gk.Nor 2 -> 5
    | Gk.Nor 3 -> 6
    | Gk.Nor 4 -> 7
    | Gk.Aoi21 -> 8
    | Gk.Oai21 -> 9
    | Gk.Aoi22 -> 10
    | Gk.Oai22 -> 11
    | Gk.Xor2 -> 12
    | Gk.Xnor2 -> 13
    | Gk.Nand _ | Gk.Nor _ -> wide_code)

(* What a structural edit invalidates, refreshed on the next query: the
   live ids (level, id)-sorted, each id's index in that order, the level
   offsets, and the fan-out lists packed in list order.  The arrays carry
   capacity, so a consumer reads [node_of] below [len], [pos] below
   [bound], [level_off] up to [depth + 1] and [fanout_off] up to [bound].
   A refresh writes them in place only while no copy shares them (see
   [order_owned]). *)
type order = {
  bound : int;  (* id bound at derivation *)
  len : int;  (* live ids *)
  depth : int;
  node_of : int array;
  pos : int array;  (* by id, -1 for dead ids *)
  level_off : int array;
      (* level l occupies node_of indices [level_off.(l), level_off.(l+1)) *)
  fanout_off : int array;  (* by id *)
  fanout : int array;
}

let empty_order =
  { bound = 0; len = 0; depth = 0; node_of = [||]; pos = [||]; level_off = [||];
    fanout_off = [| 0 |]; fanout = [||] }

(* The node store: one array per attribute, indexed by node id and sized
   by the node capacity.  {!Csr} hands these very arrays to observers.

   [load] memoises {!load_on} per node: a mutator that changes what a
   net drives invalidates (sets to nan) only the touched nets, and the
   next query recomputes the value with exactly the same fold as a cold
   computation — so cached and from-scratch loads are bit-identical and
   never drift.

   [level] caches each node's topological level (inputs at 0, a gate one
   above its deepest fan-in).  Structural mutators patch levels locally
   by re-propagating over the touched fan-out cone; a suspected cycle
   (level exceeding the live-node count) defers to a full Kahn rebuild,
   which is also what reports cycles.

   [dirty_log] is an append-only log of node ids whose local timing
   (own delay or driving load) may have changed; observers such as
   [Pops_sta.Timing] keep a cursor into it and re-propagate only from the
   logged nodes (see docs/performance.md). *)
type t = {
  tech : Pops_process.Tech.t;
  mutable next_id : int;
  mutable kind_code : int array;  (* dead_code for dead ids *)
  mutable wide : Gk.t Imap.t;  (* the kind behind each wide_code *)
  mutable vt : int array;  (* Vt.to_int; 0 (LVT) for inputs *)
  mutable cin : float array;  (* 0 for inputs, nan for dead ids *)
  mutable wire : float array;
  mutable load : float array;  (* nan = stale *)
  mutable out_load : float array;
      (* terminal load, nan = not an output, so {!load_on}, {!is_output}
         and {!set_output} stay O(1) on designs with hundreds of
         thousands of outputs *)
  mutable out_rank : int array;
      (* the output's slot in [out_ids], -1 = not an output; a
         designation move rewrites that one slot *)
  mutable level : int array;
  mutable fanin_off : int array;  (* capacity + 1 entries *)
  mutable fanin : int array;
      (* packed at alloc in pin order: arities never change, so a rewire
         rewrites one slot in place *)
  mutable fanouts : int list array;  (* each consumer once, newest first *)
  mutable input_ids : int list;  (* reversed *)
  mutable n_inputs : int;
  mutable out_ids : int array;  (* designation order, [n_out] slots used *)
  mutable n_out : int;
  mutable inputs_fwd : int list option;  (* designation-order views, *)
  mutable outputs_fwd : (int * float) list option;  (* dropped on change *)
  mutable out_shared : bool;
      (* a move landed on a net that already was an output, which is
         listed twice from then on: moves scan [out_ids] for every slot *)
  mutable levels_valid : bool;
  mutable n_live : int;
  mutable n_gates : int;
  mutable dirty_log : int array;
  mutable dirty_len : int;
  mutable struct_rev : int;
      (* bumped on every structural edit (alloc/rewire/delete/restore);
         equal revisions mean the id set, edges and levels are unchanged *)
  mutable order : order;
  mutable order_owned : bool;
      (* no copy shares [order]'s arrays, so a refresh may write them *)
  mutable order_rev : int;  (* struct_rev [order] was derived at, -1 = none *)
  mutable order_cursor : int;  (* dirty-log position [order] was derived at *)
  mutable moved : int array;
      (* ids whose level changed or that died since [order], in [n_moved]
         slots: with the ids at or above its bound, all a refresh re-sorts *)
  mutable n_moved : int;
  mutable spare_off : int array;  (* the fan-out pair the next refresh *)
  mutable spare_fo : int array;  (* packs into, swapped with [order]'s *)
  mutable sort_tail : int array;  (* refresh scratch, never shared: the *)
  mutable sort_count : int array;  (* old tail, the counting sort's offsets *)
  mutable marks : Bytes.t;  (* by id, all zero between refreshes *)
  mutable valid_rev : int;  (* revision {!validate_diags} last passed at *)
  mutable load_cursor : int;  (* dirty-log position loads are fresh up to *)
}

(* [capacity] nodes fit before the id-indexed arrays first double; the
   packed fan-ins get two slots per node and the dirty log three (a
   node's own entry plus its fan-ins'), what a parse or generator of
   mostly 1-3-input gates fills *)
let create ?(capacity = 64) tech =
  let cap = max 64 capacity in
  {
    tech;
    next_id = 0;
    kind_code = Array.make cap dead_code;
    wide = Imap.empty;
    vt = Array.make cap 0;
    cin = Array.make cap Float.nan;
    wire = Array.make cap 0.;
    load = Array.make cap Float.nan;
    out_load = Array.make cap Float.nan;
    out_rank = Array.make cap (-1);
    level = Array.make cap 0;
    fanin_off = Array.make (cap + 1) 0;
    fanin = Array.make (2 * cap) 0;
    fanouts = Array.make cap [];
    input_ids = [];
    n_inputs = 0;
    out_ids = Array.make 64 0;
    n_out = 0;
    inputs_fwd = None;
    outputs_fwd = None;
    out_shared = false;
    levels_valid = true;
    n_live = 0;
    n_gates = 0;
    dirty_log = Array.make (3 * cap) 0;
    dirty_len = 0;
    struct_rev = 0;
    order = empty_order;
    order_owned = false;
    order_rev = -1;
    order_cursor = 0;
    moved = [||];
    n_moved = 0;
    spare_off = [||];
    spare_fo = [||];
    sort_tail = [||];
    sort_count = [||];
    marks = Bytes.empty;
    valid_rev = -1;
    load_cursor = 0;
  }

let tech t = t.tech
let id_bound t = t.next_id
let live_count t = t.n_live

let widen a len fill =
  let b = Array.make len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow t =
  let cap = Array.length t.kind_code in
  if t.next_id >= cap then begin
    let cap = 2 * cap in
    t.kind_code <- widen t.kind_code cap dead_code;
    t.vt <- widen t.vt cap 0;
    t.cin <- widen t.cin cap Float.nan;
    t.wire <- widen t.wire cap 0.;
    t.load <- widen t.load cap Float.nan;
    t.out_load <- widen t.out_load cap Float.nan;
    t.out_rank <- widen t.out_rank cap (-1);
    t.level <- widen t.level cap 0;
    t.fanin_off <- widen t.fanin_off (cap + 1) 0;
    t.fanouts <- widen t.fanouts cap []
  end

let node_exists t id = id >= 0 && id < t.next_id && t.kind_code.(id) <> dead_code

let check t id =
  if not (node_exists t id) then
    invalid_arg (Printf.sprintf "Netlist.node: unknown id %d" id)

let is_cell code = code >= 0 || code = wide_code

(* the kind of a live cell id *)
let cell_kind t id =
  let code = t.kind_code.(id) in
  if code >= 0 then code_kinds.(code) else Imap.find id t.wide

let kind_of t id =
  match t.kind_code.(id) with
  | -1 -> Primary_input
  | -2 -> Cell (Imap.find id t.wide)
  | code -> code_cells.(code)

let arity_of t id = t.fanin_off.(id + 1) - t.fanin_off.(id)
let kind t id = check t id; kind_of t id
let cin t id = check t id; t.cin.(id)
let wire t id = check t id; t.wire.(id)
let fanins t id = check t id; Array.sub t.fanin t.fanin_off.(id) (arity_of t id)
let fanouts t id = check t id; t.fanouts.(id)
let vt_of t id = check t id; Vt.of_int t.vt.(id)

let node t id : node =
  check t id;
  { id; kind = kind_of t id; fanins = fanins t id; fanouts = t.fanouts.(id);
    cin = t.cin.(id); wire = t.wire.(id); vt = Vt.of_int t.vt.(id) }

(* --- dirty log ------------------------------------------------------ *)

let revision t = t.dirty_len

let mark_dirty t id =
  if t.dirty_len >= Array.length t.dirty_log then begin
    let bigger = Array.make (2 * Array.length t.dirty_log) 0 in
    Array.blit t.dirty_log 0 bigger 0 t.dirty_len;
    t.dirty_log <- bigger
  end;
  t.dirty_log.(t.dirty_len) <- id;
  t.dirty_len <- t.dirty_len + 1

let dirty_since t cursor =
  if cursor < 0 || cursor > t.dirty_len then
    invalid_arg "Netlist.dirty_since: bad cursor";
  let acc = ref [] in
  for i = t.dirty_len - 1 downto cursor do
    acc := t.dirty_log.(i) :: !acc
  done;
  !acc

let invalidate_load t id = if id < t.next_id then t.load.(id) <- Float.nan

(* whether [f] is among pins [0, i) of the segment at [o] *)
let rec read_before (fi : int array) o f i =
  i > 0 && (fi.(o + i - 1) = f || read_before fi o f (i - 1))

(* how many pins of [id] read [f] *)
let pins_reading t id f =
  let k = ref 0 in
  for p = t.fanin_off.(id) to t.fanin_off.(id + 1) - 1 do
    if t.fanin.(p) = f then incr k
  done;
  !k

(* mark every distinct fan-in source of [id]: their driven load changed *)
let touch_fanin_loads t id =
  let o = t.fanin_off.(id) in
  for i = 0 to arity_of t id - 1 do
    let f = t.fanin.(o + i) in
    if not (read_before t.fanin o f i) then begin
      invalidate_load t f;
      mark_dirty t f
    end
  done

(* --- levels and order ----------------------------------------------- *)

let live_ids t =
  let acc = ref [] in
  for id = t.next_id - 1 downto 0 do
    if node_exists t id then acc := id :: !acc
  done;
  !acc

(* per live id, its number of distinct live fan-in ids: a gate may read
   one source on several pins, but that source lists it once *)
let live_indegrees t ids =
  let indegree = Array.make (max 1 t.next_id) 0 in
  List.iter
    (fun id ->
      let o = t.fanin_off.(id) in
      let deg = ref 0 in
      for i = 0 to arity_of t id - 1 do
        let f = t.fanin.(o + i) in
        if node_exists t f && not (read_before t.fanin o f i) then incr deg
      done;
      indegree.(id) <- !deg)
    ids;
  indegree

(* Kahn residual: nodes never reaching indegree 0 sit on or downstream
   of a combinational loop.  Walking fan-ins restricted to those nodes
   must revisit one — that revisit is an actual cycle, reported in
   signal-flow order so the user can follow the loop driver to driver. *)
let find_cycle t =
  let ids = live_ids t in
  let indegree = live_indegrees t ids in
  let queue = Queue.create () in
  List.iter (fun id -> if indegree.(id) = 0 then Queue.add id queue) ids;
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    List.iter
      (fun c ->
        if node_exists t c then begin
          indegree.(c) <- indegree.(c) - 1;
          if indegree.(c) = 0 then Queue.add c queue
        end)
      t.fanouts.(id)
  done;
  let stuck id = indegree.(id) > 0 in
  match List.find_opt stuck ids with
  | None -> None
  | Some start ->
    (* [on_trail] replaces a linear trail-membership scan so the walk is
       O(V + E) even when the residual is the whole netlist *)
    let on_trail = Array.make (max 1 t.next_id) false in
    let rec walk trail id =
      if on_trail.(id) then
        (* the loop is the trail from its first occurrence of [id];
           the walk followed fan-ins (upstream), so reversing it yields
           signal-flow order *)
        let rec take acc = function
          | [] -> acc
          | x :: rest -> if x = id then id :: acc else take (x :: acc) rest
        in
        Some (List.rev (take [] trail))
      else begin
        let next = ref (-1) in
        for p = t.fanin_off.(id) to t.fanin_off.(id + 1) - 1 do
          let f = t.fanin.(p) in
          if !next < 0 && node_exists t f && stuck f then next := f
        done;
        if !next < 0 then None
        else begin
          on_trail.(id) <- true;
          walk (id :: trail) !next
        end
      end
    in
    walk [] start

let cycle_diag_of ?name cycle =
  let render id =
    match name with Some f -> f id | None -> Printf.sprintf "n%d" id
  in
  match cycle with
  | Some (first :: _ as cycle) ->
    Diag.makef Diag.Netlist_cycle ~subject:(render first)
      "combinational cycle: %s"
      (String.concat " -> " (List.map render (cycle @ [ first ])))
  | Some [] | None ->
    (* unreachable when called on a stuck Kahn pass; keep a diagnostic
       anyway rather than asserting inside error reporting *)
    Diag.make Diag.Netlist_cycle "combinational cycle detected"

let cycle_diag ?name t = cycle_diag_of ?name (find_cycle t)

let compute_level t id =
  if t.kind_code.(id) = input_code then 0
  else begin
    let l = ref 0 in
    for p = t.fanin_off.(id) to t.fanin_off.(id + 1) - 1 do
      let f = t.fanin.(p) in
      if node_exists t f then l := Int.max !l t.level.(f)
    done;
    1 + !l
  end

(* forget the derived order: the next refresh is a cold build *)
let drop_order t =
  t.order <- empty_order;
  t.order_owned <- false;
  t.order_rev <- -1;
  t.n_moved <- 0

(* every change of an old id's level or liveness is logged here; a log
   longer than the id bound is worth less than a cold build *)
let log_moved t id =
  if t.n_moved > t.next_id then drop_order t
  else begin
    if t.n_moved = Array.length t.moved then t.moved <- widen t.moved (64 + (2 * t.n_moved)) 0;
    t.moved.(t.n_moved) <- id;
    t.n_moved <- t.n_moved + 1
  end

(* full Kahn rebuild: the fallback when local level patching bailed out,
   and the only place a cycle is diagnosed *)
let rebuild_levels t =
  drop_order t;
  let ids = live_ids t in
  let indegree = live_indegrees t ids in
  let queue = Queue.create () in
  List.iter
    (fun id ->
      if indegree.(id) = 0 then begin
        t.level.(id) <- 0;
        Queue.add id queue
      end)
    ids;
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    incr seen;
    t.level.(id) <- compute_level t id;
    List.iter
      (fun c ->
        if node_exists t c then begin
          indegree.(c) <- indegree.(c) - 1;
          if indegree.(c) = 0 then Queue.add c queue
        end)
      t.fanouts.(id)
  done;
  if !seen <> t.n_live then raise (Diag.Fatal (cycle_diag t));
  t.levels_valid <- true

let ensure_levels t = if not t.levels_valid then rebuild_levels t

(* re-propagate levels over the fan-out cone of [id] while they change;
   if a level climbs past the live-node count something is cyclic, so
   defer to the full rebuild (which raises) *)
let patch_levels_from t id =
  if t.levels_valid then begin
    let queue = Queue.create () in
    Queue.add id queue;
    while t.levels_valid && not (Queue.is_empty queue) do
      let x = Queue.pop queue in
      if node_exists t x then begin
        let lvl = compute_level t x in
        if lvl > t.n_live then t.levels_valid <- false
        else if lvl <> t.level.(x) then begin
          t.level.(x) <- lvl;
          log_moved t x;
          List.iter (fun c -> Queue.add c queue) t.fanouts.(x)
        end
      end
    done
  end

let level t id =
  check t id;
  ensure_levels t;
  t.level.(id)

let structural_change t = t.struct_rev <- t.struct_rev + 1

(* --- loads ----------------------------------------------------------- *)

(* recompute a stale load: count pins, not consumers — a gate reading
   this net on several pins presents its input capacitance once per pin *)
let refresh_load t id =
  if Float.is_nan t.load.(id) then begin
    let acc = ref 0. and rest = ref t.fanouts.(id) and more = ref true in
    while !more do
      match !rest with
      | [] -> more := false
      | c :: tl ->
        acc := !acc +. (float_of_int (pins_reading t c id) *. t.cin.(c));
        rest := tl
    done;
    let terminal = if Float.is_nan t.out_load.(id) then 0. else t.out_load.(id) in
    t.load.(id) <- !acc +. t.wire.(id) +. terminal
  end

let load_on t id =
  check t id;
  refresh_load t id;
  t.load.(id)

(* every stale load is named in the dirty log past [load_cursor] *)
let refresh_loads t =
  for i = t.load_cursor to t.dirty_len - 1 do
    let id = t.dirty_log.(i) in
    if node_exists t id then refresh_load t id
  done;
  t.load_cursor <- t.dirty_len

(* packs a fan-out list at [k]; returns the index past it *)
let rec pack (dst : int array) k = function
  | [] -> k
  | c :: rest ->
    dst.(k) <- c;
    pack dst (k + 1) rest

(* [Array.blit] into a major-heap int array pays a write barrier per
   element; a typed loop stores plain words *)
let blit_ints (src : int array) so (dst : int array) d len =
  for k = 0 to len - 1 do
    dst.(d + k) <- src.(so + k)
  done

(* the ids a refresh re-sorts: live, and new or marked *)
let[@inline] live_moved t marks pb id =
  (id >= pb || Bytes.get marks id <> '\000') && t.kind_code.(id) <> dead_code

(* [a] when [reuse] and it holds [n] entries, else a fresh array with
   room to grow in place and [a]'s first [keep] entries *)
let array_for ~reuse (a : int array) n ~keep =
  if reuse && Array.length a >= n then a
  else begin
    let b = Array.make (n + (n / 8) + 64) 0 in
    blit_ints a 0 b 0 keep;
    b
  end

(* The order after a structural edit, patched from [prev].  The moved
   ids are the old ids [moved] names (re-leveled or dead) and the ids at
   or above [prev.bound].  [prev] minus the moved ids is still (level,
   id)-sorted, since no other level changed, and stands as it was below
   [p0]: the lowest old position of a moved id, or the start of the
   lowest level a moved id lands on.  The live moved ids are
   counting-sorted by level into the end of the new order and merged
   there with the saved old tail; [pos] and [level_off] are rewritten
   from [p0].  With no previous order every id is moved: that is the
   cold build.  Returns [(len, depth, node_of, pos, level_off)]. *)
let patch_order t prev ~owned =
  let bound = t.next_id and level = t.level and pb = prev.bound in
  if pb > 0 && Bytes.length t.marks < pb then
    t.marks <- Bytes.make (Array.length t.kind_code) '\000';
  let marks = t.marks in
  (* mark the moved old ids; the lowest id and old position among them *)
  let id_lo = ref pb and p_lo = ref prev.len in
  for i = 0 to t.n_moved - 1 do
    let id = t.moved.(i) in
    if id < pb && Bytes.get marks id = '\000' then begin
      Bytes.set marks id '\001';
      id_lo := Int.min !id_lo id;
      if prev.pos.(id) >= 0 then p_lo := Int.min !p_lo prev.pos.(id)
    end
  done;
  let id_lo = !id_lo in
  (* how many live moved ids, and their level range *)
  let k = ref 0 and lmin = ref max_int and lmax = ref (-1) in
  for id = id_lo to bound - 1 do
    if live_moved t marks pb id then begin
      incr k;
      lmin := Int.min !lmin level.(id);
      lmax := Int.max !lmax level.(id)
    end
  done;
  let k = !k and lmin = !lmin and range = !lmax - !lmin + 1 in
  let p0 =
    if k = 0 || prev.len = 0 then !p_lo
    else Int.min !p_lo (if lmin > prev.depth then prev.len else prev.level_off.(lmin))
  in
  (* the old tail past [p0], minus the moved ids *)
  let tail = array_for ~reuse:true t.sort_tail (prev.len - p0) ~keep:0 in
  t.sort_tail <- tail;
  let tl = ref 0 in
  for i = p0 to prev.len - 1 do
    let id = prev.node_of.(i) in
    if Bytes.get marks id = '\000' then begin
      tail.(!tl) <- id;
      incr tl
    end
  done;
  let tl = !tl in
  let len = p0 + tl + k in
  let node_of = array_for ~reuse:owned prev.node_of len ~keep:p0 in
  (* counting sort by level into [len - k, len); ids are visited
     ascending, so each level's stay sorted *)
  if k > 0 then begin
    let cnt = array_for ~reuse:true t.sort_count (range + 1) ~keep:0 in
    t.sort_count <- cnt;
    Array.fill cnt 0 (range + 1) 0;
    for id = id_lo to bound - 1 do
      if live_moved t marks pb id then begin
        let l = level.(id) - lmin + 1 in
        cnt.(l) <- cnt.(l) + 1
      end
    done;
    for l = 1 to range - 1 do
      cnt.(l) <- cnt.(l) + cnt.(l - 1)
    done;
    for id = id_lo to bound - 1 do
      if live_moved t marks pb id then begin
        let l = level.(id) - lmin in
        node_of.(len - k + cnt.(l)) <- id;
        cnt.(l) <- cnt.(l) + 1
      end
    done
  end;
  (* merge forward from [p0]: the write index never passes the unread
     moved ids, which the tail's length keeps ahead of it *)
  let i = ref 0 and j = ref (len - k) and w = ref p0 in
  while !i < tl do
    let x = tail.(!i) in
    let y = if !j < len then node_of.(!j) else -1 in
    if y >= 0 && (level.(y) < level.(x) || (level.(y) = level.(x) && y < x)) then begin
      node_of.(!w) <- y;
      incr j
    end
    else begin
      node_of.(!w) <- x;
      incr i
    end;
    incr w
  done;
  let pos = array_for ~reuse:owned prev.pos bound ~keep:pb in
  for i = 0 to t.n_moved - 1 do
    let id = t.moved.(i) in
    if id < pb then begin
      Bytes.set marks id '\000';
      pos.(id) <- -1
    end
  done;
  for id = pb to bound - 1 do
    pos.(id) <- -1
  done;
  for i = p0 to len - 1 do
    pos.(node_of.(i)) <- i
  done;
  (* level offsets: those up to the level just below [p0] are kept *)
  let depth = if len = 0 then 0 else level.(node_of.(len - 1)) in
  let kept = if p0 = 0 then -1 else level.(node_of.(p0 - 1)) in
  let level_off = array_for ~reuse:owned prev.level_off (depth + 2) ~keep:(kept + 1) in
  let l = ref (kept + 1) in
  for i = p0 to len - 1 do
    while !l <= level.(node_of.(i)) do
      level_off.(!l) <- i;
      incr l
    done
  done;
  while !l <= depth + 1 do
    level_off.(!l) <- len;
    incr l
  done;
  (len, depth, node_of, pos, level_off)

(* The fan-out lists packed, into the spare pair.  Every edit of a
   fan-out list logs its id, so an old id absent from the dirty log
   since [order_cursor] kept its list: from the lowest logged or new id
   on, kept segments are copied from [prev]'s packing in runs of
   consecutive ids, and only logged and new ids walk their lists.
   Returns [(fanout_off, fanout)]. *)
let repack_fanout t prev =
  let bound = t.next_id and pb = prev.bound and marks = t.marks in
  let old_off = prev.fanout_off and old_fo = prev.fanout in
  (* mark the logged old ids, size the new packing *)
  let lo = ref pb and edges = ref old_off.(pb) in
  if pb > 0 then
    for i = t.order_cursor to t.dirty_len - 1 do
      let id = t.dirty_log.(i) in
      if id < pb && Bytes.get marks id = '\000' then begin
        Bytes.set marks id '\001';
        lo := Int.min !lo id;
        edges := !edges - (old_off.(id + 1) - old_off.(id)) + List.length t.fanouts.(id)
      end
    done;
  for id = pb to bound - 1 do
    edges := !edges + List.length t.fanouts.(id)
  done;
  let lo = !lo in
  let off = array_for ~reuse:true t.spare_off (bound + 1) ~keep:0 in
  let fo = array_for ~reuse:true t.spare_fo !edges ~keep:0 in
  blit_ints old_off 0 off 0 (lo + 1);
  blit_ints old_fo 0 fo 0 old_off.(lo);
  (* ids [a, b) below [pb] kept their lists *)
  let copy_run a b =
    let delta = off.(a) - old_off.(a) in
    blit_ints old_fo old_off.(a) fo off.(a) (old_off.(b) - old_off.(a));
    for id = a + 1 to b do
      off.(id) <- old_off.(id) + delta
    done
  in
  let run = ref lo in
  for id = lo to bound - 1 do
    if id >= pb || Bytes.get marks id <> '\000' then begin
      if !run < id then copy_run !run id;
      if id < pb then Bytes.set marks id '\000';
      off.(id + 1) <- pack fo off.(id) t.fanouts.(id);
      run := id + 1
    end
  done;
  if !run < pb then copy_run !run pb;
  (off, fo)

(* After a structural edit.  The order arrays are written in place only
   while [order_owned], and only an owned fan-out pair becomes the
   spare: after a copy, the first refresh allocates, with room to
   grow. *)
let derive t =
  ensure_levels t;
  let prev = t.order and owned = t.order_owned in
  let len, depth, node_of, pos, level_off = patch_order t prev ~owned in
  let fanout_off, fanout = repack_fanout t prev in
  t.spare_off <- (if owned then prev.fanout_off else [||]);
  t.spare_fo <- (if owned then prev.fanout else [||]);
  t.order <- { bound = t.next_id; len; depth; node_of; pos; level_off; fanout_off; fanout };
  t.order_owned <- true;
  t.order_rev <- t.struct_rev;
  t.order_cursor <- t.dirty_len;
  t.n_moved <- 0

let order t =
  if t.order_rev <> t.struct_rev then derive t;
  t.order

let topological_order t =
  let o = order t in
  List.init o.len (fun i -> o.node_of.(i))

let depth t = (order t).depth

let count_level_ge t l =
  let o = order t in
  if l <= 0 then o.len else if l > o.depth then 0 else o.len - o.level_off.(l)

(* --- construction --------------------------------------------------- *)

let alloc t kind fanins cin wire =
  grow t;
  let id = t.next_id in
  let o = t.fanin_off.(id) and k = Array.length fanins in
  if o + k > Array.length t.fanin then
    t.fanin <- widen t.fanin (2 * (o + k)) 0;
  Array.blit fanins 0 t.fanin o k;
  t.fanin_off.(id + 1) <- o + k;
  let code = code_of_kind kind in
  t.kind_code.(id) <- code;
  (match kind with
  | Cell k when code = wide_code -> t.wide <- Imap.add id k t.wide
  | Cell _ | Primary_input -> ());
  t.vt.(id) <- 0;
  t.cin.(id) <- cin;
  t.wire.(id) <- wire;
  t.fanouts.(id) <- [];
  t.next_id <- id + 1;
  t.n_live <- t.n_live + 1;
  if is_cell code then t.n_gates <- t.n_gates + 1;
  (* fanout lists hold each consumer once, even when it reads the same
     source on several pins; dedup scans the (tiny) fanin prefix instead
     of the source's whole fanout list *)
  for i = 0 to k - 1 do
    let f = t.fanin.(o + i) in
    if not (read_before t.fanin o f i) then begin
      t.fanouts.(f) <- id :: t.fanouts.(f);
      invalidate_load t f;
      mark_dirty t f
    end
  done;
  t.load.(id) <- Float.nan;
  if t.levels_valid then t.level.(id) <- compute_level t id;
  structural_change t;
  mark_dirty t id;
  id

let add_input ?name t =
  ignore name;
  let id = alloc t Primary_input [||] 0. 0. in
  t.input_ids <- id :: t.input_ids;
  t.n_inputs <- t.n_inputs + 1;
  t.inputs_fwd <- None;
  id

let add_gate ?cin ?(wire = 0.) t kind fanins =
  let cin = Option.value cin ~default:t.tech.Pops_process.Tech.cmin in
  if Array.length fanins <> Gk.arity kind then
    invalid_arg
      (Printf.sprintf "Netlist.add_gate: %s expects %d fanins, got %d" (Gk.name kind)
         (Gk.arity kind) (Array.length fanins));
  for i = 0 to Array.length fanins - 1 do
    if not (node_exists t fanins.(i)) then
      invalid_arg (Printf.sprintf "Netlist.add_gate: unknown fanin %d" fanins.(i))
  done;
  if cin <= 0. then invalid_arg "Netlist.add_gate: cin <= 0";
  alloc t (Cell kind) fanins cin wire

let set_output t id ~load =
  check t id;
  if load < 0. then invalid_arg "Netlist.set_output: negative load";
  (* a fresh output takes the next slot (the slot array doubles, so
     building a design with 100k+ outputs stays linear); updating an
     existing one changes its load only *)
  if Float.is_nan t.out_load.(id) then begin
    if t.n_out = Array.length t.out_ids then begin
      let bigger = Array.make (2 * t.n_out) 0 in
      Array.blit t.out_ids 0 bigger 0 t.n_out;
      t.out_ids <- bigger
    end;
    t.out_ids.(t.n_out) <- id;
    t.out_rank.(id) <- t.n_out;
    t.n_out <- t.n_out + 1
  end;
  t.outputs_fwd <- None;
  t.out_load.(id) <- load;
  invalidate_load t id;
  mark_dirty t id

let gate_kind t id =
  check t id;
  if t.kind_code.(id) = input_code then
    invalid_arg (Printf.sprintf "Netlist.gate_kind: %d is an input" id);
  cell_kind t id

let rec inputs t =
  match t.inputs_fwd with
  | Some l -> l
  | None -> t.inputs_fwd <- Some (List.rev t.input_ids); inputs t

let rec outputs t =
  match t.outputs_fwd with
  | Some l -> l
  | None ->
    t.outputs_fwd <-
      Some (List.init t.n_out (fun r -> (t.out_ids.(r), t.out_load.(t.out_ids.(r)))));
    outputs t

let output_ids t = t.out_ids
let output_count t = t.n_out

let is_output t id =
  id >= 0 && id < t.next_id && not (Float.is_nan t.out_load.(id))

let gate_ids t =
  let acc = ref [] in
  for id = t.next_id - 1 downto 0 do
    if is_cell t.kind_code.(id) then acc := id :: !acc
  done;
  !acc

let gate_count t = t.n_gates
let input_count t = t.n_inputs

(* --- mutators ------------------------------------------------------- *)

let set_cin t id cin =
  check t id;
  if t.kind_code.(id) = input_code then invalid_arg "Netlist.set_cin: primary input";
  if cin <= 0. then invalid_arg "Netlist.set_cin: cin <= 0";
  if cin <> t.cin.(id) then begin
    t.cin.(id) <- cin;
    (* the load this gate presents to its drivers changed; its own stage
       delay changed too (cin is its drive strength) *)
    touch_fanin_loads t id;
    mark_dirty t id
  end

let set_wire t id wire =
  if wire < 0. then invalid_arg "Netlist.set_wire: negative";
  check t id;
  if wire <> t.wire.(id) then begin
    t.wire.(id) <- wire;
    invalidate_load t id;
    mark_dirty t id
  end

let set_fanin t id ~pin new_src =
  check t id;
  if pin < 0 || pin >= arity_of t id then invalid_arg "Netlist.set_fanin: pin";
  check t new_src;
  let o = t.fanin_off.(id) in
  let old_src = t.fanin.(o + pin) in
  if old_src <> new_src then begin
    t.fanin.(o + pin) <- new_src;
    (* remove one occurrence of id from old_src's fanouts, unless another
       pin still reads old_src *)
    if pins_reading t id old_src = 0 then
      t.fanouts.(old_src) <- List.filter (fun f -> f <> id) t.fanouts.(old_src);
    (* the consumer is already listed when another pin reads new_src *)
    if pins_reading t id new_src = 1 then t.fanouts.(new_src) <- id :: t.fanouts.(new_src);
    invalidate_load t old_src;
    invalidate_load t new_src;
    mark_dirty t old_src;
    mark_dirty t new_src;
    mark_dirty t id;
    structural_change t;
    patch_levels_from t id
  end

let replace_kind t id kind =
  check t id;
  if t.kind_code.(id) = input_code then invalid_arg "Netlist.replace_kind: primary input";
  if arity_of t id <> Gk.arity kind then invalid_arg "Netlist.replace_kind: arity mismatch";
  let code = code_of_kind (Cell kind) in
  t.kind_code.(id) <- code;
  if code = wide_code then t.wide <- Imap.add id kind t.wide;
  mark_dirty t id

let set_vt t id vt =
  check t id;
  if t.kind_code.(id) = input_code then invalid_arg "Netlist.set_vt: primary input";
  let code = Vt.to_int vt in
  if code <> t.vt.(id) then begin
    (* non-structural, like replace_kind: widths and edges are untouched,
       only the node's own stage delay changes *)
    t.vt.(id) <- code;
    mark_dirty t id
  end

let rewire_fanouts t ~from_ ~to_ ~except =
  check t from_;
  let consumers = List.filter (fun c -> not (List.mem c except)) t.fanouts.(from_) in
  List.iter
    (fun c ->
      for pin = 0 to arity_of t c - 1 do
        if t.fanin.(t.fanin_off.(c) + pin) = from_ then set_fanin t c ~pin to_
      done)
    consumers;
  (* move primary-output designation, keeping its position so the
     output order (and thus logic-equivalence comparisons) is stable:
     one slot rewrite, unless some net is listed twice *)
  if not (Float.is_nan t.out_load.(from_)) then begin
    if t.out_shared || not (Float.is_nan t.out_load.(to_)) then begin
      t.out_shared <- true;
      for r = 0 to t.n_out - 1 do
        if t.out_ids.(r) = from_ then t.out_ids.(r) <- to_
      done
    end
    else t.out_ids.(t.out_rank.(from_)) <- to_;
    t.out_rank.(to_) <- t.out_rank.(from_);
    t.out_rank.(from_) <- -1;
    t.outputs_fwd <- None;
    t.out_load.(to_) <- t.out_load.(from_);
    t.out_load.(from_) <- Float.nan;
    invalidate_load t from_;
    invalidate_load t to_;
    mark_dirty t from_;
    mark_dirty t to_
  end

let delete_gate t id =
  check t id;
  if t.fanouts.(id) <> [] then invalid_arg "Netlist.delete_gate: has consumers";
  if not (Float.is_nan t.out_load.(id)) then
    invalid_arg "Netlist.delete_gate: is a primary output";
  for p = t.fanin_off.(id) to t.fanin_off.(id + 1) - 1 do
    let f = t.fanin.(p) in
    if node_exists t f then begin
      t.fanouts.(f) <- List.filter (fun x -> x <> id) t.fanouts.(f);
      invalidate_load t f;
      mark_dirty t f
    end
  done;
  if is_cell t.kind_code.(id) then t.n_gates <- t.n_gates - 1;
  t.kind_code.(id) <- dead_code;
  t.cin.(id) <- Float.nan;
  t.load.(id) <- Float.nan;
  t.n_live <- t.n_live - 1;
  structural_change t;
  log_moved t id;
  mark_dirty t id

(* --- the CSR view ------------------------------------------------------ *)

module Csr = struct
  type nonrec t = t

  let code_kinds = code_kinds
  let code_of_kind = code_of_kind
  let bound c = c.order.bound
  let length c = c.order.len
  let node_of c = c.order.node_of
  let pos c = c.order.pos
  let level_off c = c.order.level_off
  let kind_code c = c.kind_code
  let vt_code c = c.vt
  let cin (c : t) = c.cin
  let load c = c.load
  let fanin_off c = c.fanin_off
  let fanin c = c.fanin
  let fanout_off c = c.order.fanout_off
  let fanout c = c.order.fanout
  let depth c = c.order.depth
end

(* scalar edits write the arrays {!Csr} returns, so only the order
   can be out of date, and the loads the dirty log names stale *)
let csr t =
  if t.order_rev <> t.struct_rev then derive t;
  refresh_loads t;
  t

(* --- validation ------------------------------------------------------ *)

(* pin [i] of the segment at [o] is the first to read its driver, an id
   below [bound] *)
let distinct_pin (fi : int array) o i bound =
  let f = fi.(o + i) in
  f >= 0 && f < bound && not (read_before fi o f i)

(* Consumers-by-driver CSR derived from the fan-ins, each distinct
   (driver, consumer) pair once — the same dedup contract the fanout
   lists maintain.  Flat int arrays only, so the two-way fanout-list /
   fan-in consistency check below stays O(V + E) with no hashing or
   per-edge boxing (a 1M-gate design validates in well under a second,
   see test_csr). *)
let consumer_csr t =
  let bound = max 1 t.next_id in
  let off = Array.make (bound + 1) 0 in
  for id = 0 to t.next_id - 1 do
    if node_exists t id then begin
      let o = t.fanin_off.(id) in
      for i = 0 to arity_of t id - 1 do
        if distinct_pin t.fanin o i bound then
          off.(t.fanin.(o + i) + 1) <- off.(t.fanin.(o + i) + 1) + 1
      done
    end
  done;
  for f = 0 to bound - 1 do
    off.(f + 1) <- off.(f + 1) + off.(f)
  done;
  let consumers = Array.make (max 1 off.(bound)) 0 in
  let cur = Array.copy off in
  for id = 0 to t.next_id - 1 do
    if node_exists t id then begin
      let o = t.fanin_off.(id) in
      for i = 0 to arity_of t id - 1 do
        if distinct_pin t.fanin o i bound then begin
          let f = t.fanin.(o + i) in
          consumers.(cur.(f)) <- id;
          cur.(f) <- cur.(f) + 1
        end
      done
    end
  done;
  (off, consumers)

(* stamp [f] on the in-range consumers a fanout list names; returns how
   many entries it names *)
let rec stamp_listed stamp f bound listed = function
  | [] -> listed
  | c :: rest ->
    if c >= 0 && c < bound then stamp.(c) <- f;
    stamp_listed stamp f bound (listed + 1) rest

(* The forward direction of fanout-list consistency: every actual
   consumer (per the fan-ins) must be named by its driver's fanout list,
   and the list must not name anyone twice.  [emit] receives
   [`Missing (driver, consumer)] or [`Duplicate driver].  Listed-but-wrong
   entries are the backward direction, checked per node by the caller. *)
let check_fanout_sync t emit =
  let off, consumers = consumer_csr t in
  let bound = max 1 t.next_id in
  (* stamp = f marks the consumers f's fanout list names this round *)
  let stamp = Array.make bound (-1) in
  for f = 0 to t.next_id - 1 do
    if node_exists t f then begin
      let listed = stamp_listed stamp f bound 0 t.fanouts.(f) in
      for i = off.(f) to off.(f + 1) - 1 do
        if stamp.(consumers.(i)) <> f then emit (`Missing (f, consumers.(i)))
      done;
      if listed > off.(f + 1) - off.(f) then emit (`Duplicate f)
    end
  done

(* The validation pass: it does not stop at the first problem — every
   violation becomes one {!Diag.t}, so a front end can report the whole
   state of a malformed netlist at once.  [name] renders node ids (the
   CLI passes the .bench signal names).  Arities need no check: the
   store packs each node's fan-ins at its kind's arity. *)
let validate_diags ?name t =
  let render id =
    match name with Some f -> f id | None -> Printf.sprintf "n%d" id
  in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* the backward direction: each listed consumer exists and reads [id] *)
  let rec check_listed id = function
    | [] -> ()
    | c :: rest ->
      (if not (node_exists t c) then
         add
           (Diag.makef Diag.Netlist_dangling ~subject:(render id)
              "fan-out references deleted node %d" c)
       else if not (read_before t.fanin t.fanin_off.(c) id (arity_of t c)) then
         add
           (Diag.makef Diag.Netlist_dangling ~subject:(render id)
              "fan-out %s does not read this net" (render c)));
      check_listed id rest
  in
  (* [render] allocates per call — only pay for it on nodes that
     actually produce a diagnostic, never per visited node.  A direct id
     sweep (no live_ids list), loops and top-level helpers instead of a
     closure per node keep the pass allocation-free on a clean netlist. *)
  for id = 0 to t.next_id - 1 do
    let code = t.kind_code.(id) in
    if code <> dead_code then begin
      if code <> input_code && t.cin.(id) <= 0. then
        add
          (Diag.makef Diag.Netlist_bad_cin ~subject:(render id)
             "non-positive input capacitance %g fF" t.cin.(id));
      for p = t.fanin_off.(id) to t.fanin_off.(id + 1) - 1 do
        if not (node_exists t t.fanin.(p)) then
          add
            (Diag.makef Diag.Netlist_dangling ~subject:(render id)
               "fan-in references deleted node %d" t.fanin.(p))
      done;
      check_listed id t.fanouts.(id);
      match t.fanouts.(id) with
      | [] when code <> input_code && Float.is_nan t.out_load.(id) ->
        add
          (Diag.makef Diag.Netlist_zero_fanout ~subject:(render id)
             "gate drives nothing and is not a primary output")
      | _ -> ()
    end
  done;
  check_fanout_sync t (function
    | `Missing (f, c) ->
      add
        (Diag.makef Diag.Netlist_dangling ~subject:(render c)
           "fan-out list of %s misses this consumer" (render f))
    | `Duplicate f ->
      add
        (Diag.makef Diag.Internal ~subject:(render f)
           "fan-out list names a consumer twice"));
  (* the level cache doubles as an acyclicity certificate: rebuilding it
     raises on a cycle, and on a clean netlist it is already valid — so
     the expensive residual-Kahn cycle walk only runs when needed *)
  (match ensure_levels t with
  | () -> ()
  | exception (Failure _ | Diag.Fatal _) -> (
    match find_cycle t with
    | Some _ as cycle -> add (cycle_diag_of ?name cycle)
    | None -> add (Diag.make Diag.Netlist_cycle "combinational cycle detected")));
  if not (List.exists (fun d -> d.Diag.severity = Diag.Error) !diags) then
    t.valid_rev <- t.dirty_len;
  List.rev !diags

let validated t = t.valid_rev = t.dirty_len

(* the first error among the diagnostics, on one line *)
let validate t =
  match List.find_opt (fun d -> d.Diag.severity = Diag.Error) (validate_diags t) with
  | Some d -> Error (Diag.one_line d)
  | None -> Ok ()

let kind_histogram t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun id ->
      let kind = gate_kind t id in
      let key = Gk.name kind in
      let prev = Option.value ~default:(kind, 0) (Hashtbl.find_opt tbl key) in
      Hashtbl.replace tbl key (kind, snd prev + 1))
    (gate_ids t);
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare (Gk.name a) (Gk.name b))

(* {!Pops_cell.Cell.area}, written out: a call would box the cin read
   off the store, and its result *)
let area (cell : Pops_cell.Cell.t) cin =
  cell.area_coeff *. cin /. cell.tech.Pops_process.Tech.cg_per_um
[@@inline]

(* gate ids ascending, the order the fingerprints fix, into one unboxed
   accumulator: no id list, no closure and no boxed float per gate *)
let total_area t lib =
  let acc = ref 0. in
  for id = 0 to t.next_id - 1 do
    if is_cell t.kind_code.(id) then
      acc := !acc +. area (Pops_cell.Library.find lib (cell_kind t id)) t.cin.(id)
  done;
  !acc

(* Same fold as {!total_area} (same order, so an all-LVT netlist weighs
   bit-identically to its plain area), each gate's width scaled by its Vt
   class's leakage factor. *)
let total_leakage_area t lib =
  let acc = ref 0. in
  for id = 0 to t.next_id - 1 do
    if is_cell t.kind_code.(id) then begin
      let cell = Pops_cell.Library.find_vt lib (cell_kind t id) (Vt.of_int t.vt.(id)) in
      acc := !acc +. (area cell t.cin.(id) *. cell.leak_factor)
    end
  done;
  !acc

let copy t =
  (* the copy starts with an empty dirty log, so it must inherit no stale
     load; a current order carries over, shared, and then neither side
     may write it in place *)
  refresh_loads t;
  let shared = t.order_rev = t.struct_rev and cp = Array.copy in
  if shared then t.order_owned <- false;
  {
    t with
    kind_code = cp t.kind_code;
    vt = cp t.vt;
    cin = cp t.cin;
    wire = cp t.wire;
    load = cp t.load;
    out_load = cp t.out_load;
    out_rank = cp t.out_rank;
    level = cp t.level;
    fanin_off = cp t.fanin_off;
    fanin = cp t.fanin;
    fanouts = cp t.fanouts;
    out_ids = cp t.out_ids;
    (* the copy starts its own edit history: observers of the original
       must not see the copy's edits and vice versa *)
    dirty_log = Array.make 64 0;
    dirty_len = 0;
    order = (if shared then t.order else empty_order);
    order_owned = false;
    order_rev = (if shared then t.struct_rev else -1);
    order_cursor = 0;
    moved = [||];
    n_moved = 0;
    spare_off = [||];
    spare_fo = [||];
    sort_tail = [||];
    sort_count = [||];
    marks = Bytes.empty;
    (* a validation at the source's revision holds at the copy's first *)
    valid_rev = (if validated t then 0 else -1);
    load_cursor = 0;
  }

let restore t ~from =
  (* nodes live before the rewind must be cleared by observers, nodes
     live after it re-evaluated: log both sides (duplicates are fine,
     observers already de-duplicate their wavefront) *)
  for id = t.next_id - 1 downto 0 do
    if node_exists t id then mark_dirty t id
  done;
  let cp = Array.copy in
  t.next_id <- from.next_id;
  t.kind_code <- cp from.kind_code;
  t.wide <- from.wide;
  t.vt <- cp from.vt;
  t.cin <- cp from.cin;
  t.wire <- cp from.wire;
  t.load <- cp from.load;
  t.out_load <- cp from.out_load;
  t.out_rank <- cp from.out_rank;
  t.level <- cp from.level;
  t.fanin_off <- cp from.fanin_off;
  t.fanin <- cp from.fanin;
  t.fanouts <- cp from.fanouts;
  t.input_ids <- from.input_ids;
  t.n_inputs <- from.n_inputs;
  t.out_ids <- cp from.out_ids;
  t.n_out <- from.n_out;
  t.out_shared <- from.out_shared;
  t.inputs_fwd <- from.inputs_fwd;
  t.outputs_fwd <- from.outputs_fwd;
  t.levels_valid <- from.levels_valid;
  t.n_live <- from.n_live;
  t.n_gates <- from.n_gates;
  t.struct_rev <- t.struct_rev + 1;
  drop_order t;
  t.valid_rev <- -1;
  (* the log past [load_cursor] names every live id, so the next [csr]
     refreshes whatever [from] held stale *)
  for id = 0 to t.next_id - 1 do
    if node_exists t id then mark_dirty t id
  done

let pp_stats ppf t =
  Format.fprintf ppf "@[<v>netlist: %d inputs, %d gates, %d outputs, depth %d@ "
    (input_count t) (gate_count t)
    t.n_out
    (depth t);
  List.iter
    (fun (kind, count) -> Format.fprintf ppf "%s: %d@ " (Gk.name kind) count)
    (kind_histogram t);
  Format.fprintf ppf "@]"
