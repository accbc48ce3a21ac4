module Gk = Pops_cell.Gate_kind
module Diag = Pops_robust.Diag

type node_kind = Primary_input | Cell of Gk.t

type node = {
  id : int;
  mutable kind : node_kind;
  mutable fanins : int array;
  mutable fanouts : int list;
  mutable cin : float;
  mutable wire : float;
  mutable vt : Pops_process.Vt.t;
      (* threshold class of the cell instance; Lvt for primary inputs *)
}

(* Incremental caches.

   [load_cache] memoises {!load_on} per node: a mutator that changes what
   a net drives invalidates (sets to nan) only the touched nets, and the
   next query recomputes the value with exactly the same fold as a cold
   computation — so cached and from-scratch loads are bit-identical and
   never drift.

   [level] caches each node's topological level (inputs at 0, a gate one
   above its deepest fan-in).  Structural mutators patch levels locally
   by re-propagating over the touched fan-out cone; a suspected cycle
   (level exceeding the live-node count) defers to a full Kahn rebuild,
   which is also what reports cycles.  [topo_cache] is a by-level order
   derived from the levels, invalidated on structural edits.

   [dirty_log] is an append-only log of node ids whose local timing
   (own delay or driving load) may have changed; observers such as
   [Pops_sta.Timing] keep a cursor into it and re-propagate only from the
   logged nodes (see docs/performance.md). *)
type csr = {
  c_bound : int;  (* id bound at snapshot build *)
  c_n : int;  (* live node count *)
  c_node_of : int array;  (* c_n entries, (level, id)-sorted *)
  c_pos : int array;  (* by id: index into c_node_of, -1 for dead ids *)
  c_level_off : int array;
      (* level l occupies c_node_of indices
         [c_level_off.(l), c_level_off.(l+1)); length depth + 2 *)
  c_kind_code : int array;  (* by id: -1 input, -2 unknown cell, else 0..13 *)
  c_vt : int array;  (* by id: Vt.to_int of the node's threshold class *)
  c_cin : float array;  (* by id *)
  c_load : float array;  (* by id: load_on snapshot *)
  c_fanin_off : int array;  (* by id, length c_bound + 1 *)
  c_fanin : int array;  (* packed fan-in ids in pin order *)
  c_fanout_off : int array;
  c_fanout : int array;  (* consumer ids, fanout-list order *)
}

type t = {
  tech : Pops_process.Tech.t;
  mutable nodes : node option array;
  mutable next_id : int;
  mutable input_ids : int list;  (* reversed *)
  mutable n_inputs : int;
  mutable out_ids : int array;  (* designation order, [n_out] slots used *)
  mutable n_out : int;
  mutable inputs_fwd : int list option;  (* designation-order views, *)
  mutable outputs_fwd : (int * float) list option;  (* dropped on change *)
  mutable out_load : float array;
      (* by id: terminal load, nan = not an output, so {!load_on},
         {!is_output} and {!set_output} stay O(1) on designs with
         hundreds of thousands of outputs *)
  mutable out_rank : int array;
      (* by id: the output's slot in [out_ids], -1 = not an output; a
         designation move rewrites that one slot *)
  mutable out_shared : bool;
      (* a move landed on a net that already was an output, which is
         listed twice from then on: moves scan [out_ids] for every slot *)
  mutable load_cache : float array;  (* nan = stale *)
  mutable level : int array;
  mutable levels_valid : bool;
  mutable topo_cache : int list option;
  mutable level_counts : int array option;
      (* suffix population: [counts.(l)] = live nodes at level >= l;
         length depth + 2 (so the last entry is 0).  Rebuilt with the
         topo cache; pure resizes keep it valid. *)
  mutable n_live : int;
  mutable n_gates : int;
  mutable dirty_log : int array;
  mutable dirty_len : int;
  mutable struct_rev : int;
      (* bumped on every structural edit (alloc/rewire/delete/restore);
         equal revisions mean the id set, edges and levels are unchanged *)
  mutable csr_cache : csr option;
  mutable csr_struct_rev : int;  (* struct_rev the cache was built at *)
  mutable csr_cursor : int;  (* dirty-log position the cache is synced to *)
}

let create tech =
  {
    tech;
    nodes = Array.make 64 None;
    next_id = 0;
    input_ids = [];
    n_inputs = 0;
    out_ids = Array.make 64 0;
    n_out = 0;
    inputs_fwd = None;
    outputs_fwd = None;
    out_load = Array.make 64 Float.nan;
    out_rank = Array.make 64 (-1);
    out_shared = false;
    load_cache = Array.make 64 Float.nan;
    level = Array.make 64 0;
    levels_valid = true;
    topo_cache = Some [];
    level_counts = None;
    n_live = 0;
    n_gates = 0;
    dirty_log = Array.make 64 0;
    dirty_len = 0;
    struct_rev = 0;
    csr_cache = None;
    csr_struct_rev = -1;
    csr_cursor = 0;
  }

let tech t = t.tech
let id_bound t = t.next_id
let live_count t = t.n_live

let grow t =
  if t.next_id >= Array.length t.nodes then begin
    let cap = 2 * Array.length t.nodes in
    let bigger = Array.make cap None in
    Array.blit t.nodes 0 bigger 0 (Array.length t.nodes);
    t.nodes <- bigger;
    let loads = Array.make cap Float.nan in
    Array.blit t.load_cache 0 loads 0 (Array.length t.load_cache);
    t.load_cache <- loads;
    let outs = Array.make cap Float.nan in
    Array.blit t.out_load 0 outs 0 (Array.length t.out_load);
    t.out_load <- outs;
    let ranks = Array.make cap (-1) in
    Array.blit t.out_rank 0 ranks 0 (Array.length t.out_rank);
    t.out_rank <- ranks;
    let levels = Array.make cap 0 in
    Array.blit t.level 0 levels 0 (Array.length t.level);
    t.level <- levels
  end

let node_exists t id = id >= 0 && id < t.next_id && t.nodes.(id) <> None

let node t id =
  if not (node_exists t id) then
    invalid_arg (Printf.sprintf "Netlist.node: unknown id %d" id);
  match t.nodes.(id) with Some n -> n | None -> assert false

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

let invalidate_load t id = if id < t.next_id then t.load_cache.(id) <- Float.nan

(* mark every distinct fan-in source of [n]: their driven load changed *)
let rec read_before (fi : int array) f i =
  i > 0 && (fi.(i - 1) = f || read_before fi f (i - 1))

let touch_fanin_loads t (n : node) =
  for i = 0 to Array.length n.fanins - 1 do
    let f = n.fanins.(i) in
    if not (read_before n.fanins f i) then begin
      invalidate_load t f;
      mark_dirty t f
    end
  done

(* --- levels and order ----------------------------------------------- *)

let live_ids t =
  let acc = ref [] in
  for id = t.next_id - 1 downto 0 do
    if t.nodes.(id) <> None then acc := id :: !acc
  done;
  !acc

(* per live id, its number of distinct live fan-in ids: a gate may read
   one source on several pins, but that source lists it once *)
let live_indegrees t ids =
  let indegree = Array.make (max 1 t.next_id) 0 in
  List.iter
    (fun id ->
      let n = node t id in
      let deg = ref 0 in
      Array.iteri
        (fun i f ->
          if node_exists t f then begin
            let dup = ref false in
            for j = 0 to i - 1 do
              if n.fanins.(j) = f then dup := true
            done;
            if not !dup then incr deg
          end)
        n.fanins;
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
      (node t id).fanouts
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
        let n = node t id in
        let next = ref (-1) in
        Array.iter
          (fun f -> if !next < 0 && node_exists t f && stuck f then next := f)
          n.fanins;
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

(* full Kahn rebuild: the fallback when local level patching bailed out,
   and the only place a cycle is diagnosed *)
let rebuild_levels t =
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
    let n = node t id in
    let lvl =
      match n.kind with
      | Primary_input -> 0
      | Cell _ ->
        1
        + Array.fold_left
            (fun acc f -> if node_exists t f then Int.max acc t.level.(f) else acc)
            0 n.fanins
    in
    t.level.(id) <- lvl;
    List.iter
      (fun c ->
        if node_exists t c then begin
          indegree.(c) <- indegree.(c) - 1;
          if indegree.(c) = 0 then Queue.add c queue
        end)
      n.fanouts
  done;
  if !seen <> t.n_live then raise (Diag.Fatal (cycle_diag t));
  t.levels_valid <- true

let ensure_levels t = if not t.levels_valid then rebuild_levels t

let compute_level t (n : node) =
  match n.kind with
  | Primary_input -> 0
  | Cell _ ->
    let l = ref 0 in
    for i = 0 to Array.length n.fanins - 1 do
      let f = n.fanins.(i) in
      if node_exists t f then l := Int.max !l t.level.(f)
    done;
    1 + !l

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
        let n = node t x in
        let lvl = compute_level t n in
        if lvl > t.n_live then t.levels_valid <- false
        else if lvl <> t.level.(x) then begin
          t.level.(x) <- lvl;
          List.iter (fun c -> Queue.add c queue) n.fanouts
        end
      end
    done
  end

let level t id =
  ignore (node t id);
  ensure_levels t;
  t.level.(id)

let structural_change t =
  t.topo_cache <- None;
  t.level_counts <- None;
  t.struct_rev <- t.struct_rev + 1

(* (level, id)-sorted live ids by counting sort: bucket sizes per level,
   prefix offsets, then one ascending-id placement pass (which keeps ids
   sorted within a level).  O(V + depth), no comparator closures — the
   stable sort this replaces allocated a tuple pair per comparison. *)
let level_sorted_live t =
  ensure_levels t;
  let d = ref 0 in
  for id = 0 to t.next_id - 1 do
    if t.nodes.(id) <> None then d := Int.max !d t.level.(id)
  done;
  let off = Array.make (!d + 2) 0 in
  for id = 0 to t.next_id - 1 do
    if t.nodes.(id) <> None then
      off.(t.level.(id) + 1) <- off.(t.level.(id) + 1) + 1
  done;
  for l = 1 to !d + 1 do
    off.(l) <- off.(l) + off.(l - 1)
  done;
  let order = Array.make t.n_live 0 in
  let cursor = Array.copy off in
  for id = 0 to t.next_id - 1 do
    if t.nodes.(id) <> None then begin
      let l = t.level.(id) in
      order.(cursor.(l)) <- id;
      cursor.(l) <- cursor.(l) + 1
    end
  done;
  (order, off)

let topological_order t =
  match t.topo_cache with
  | Some order -> order
  | None ->
    let arr, _ = level_sorted_live t in
    let order = Array.to_list arr in
    t.topo_cache <- Some order;
    order

let level_suffix_counts t =
  match t.level_counts with
  | Some c -> c
  | None ->
    ensure_levels t;
    let d = ref 0 in
    for id = 0 to t.next_id - 1 do
      if t.nodes.(id) <> None then d := Int.max !d t.level.(id)
    done;
    let counts = Array.make (!d + 2) 0 in
    for id = 0 to t.next_id - 1 do
      if t.nodes.(id) <> None then
        counts.(t.level.(id)) <- counts.(t.level.(id)) + 1
    done;
    for l = !d - 1 downto 0 do
      counts.(l) <- counts.(l) + counts.(l + 1)
    done;
    t.level_counts <- Some counts;
    counts

let depth t = Array.length (level_suffix_counts t) - 2

let count_level_ge t l =
  let counts = level_suffix_counts t in
  if l <= 0 then counts.(0)
  else if l >= Array.length counts then 0
  else counts.(l)

(* --- construction --------------------------------------------------- *)

let alloc t kind fanins cin wire =
  grow t;
  let id = t.next_id in
  let n = { id; kind; fanins; fanouts = []; cin; wire; vt = Pops_process.Vt.Lvt } in
  t.nodes.(id) <- Some n;
  t.next_id <- id + 1;
  t.n_live <- t.n_live + 1;
  (match kind with Cell _ -> t.n_gates <- t.n_gates + 1 | Primary_input -> ());
  (* fanout lists hold each consumer once, even when it reads the same
     source on several pins; dedup scans the (tiny) fanin prefix instead
     of the source's whole fanout list *)
  for i = 0 to Array.length fanins - 1 do
    let f = fanins.(i) in
    if not (read_before fanins f i) then begin
      let src = node t f in
      src.fanouts <- id :: src.fanouts;
      invalidate_load t f;
      mark_dirty t f
    end
  done;
  t.load_cache.(id) <- Float.nan;
  if t.levels_valid then t.level.(id) <- compute_level t n;
  (* a fresh node has no consumers, so appending keeps any cached order
     valid — but keep it simple and let the next query re-derive it *)
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
  alloc t (Cell kind) (Array.copy fanins) cin wire

let set_output t id ~load =
  ignore (node t id);
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
  match (node t id).kind with
  | Cell k -> k
  | Primary_input -> invalid_arg (Printf.sprintf "Netlist.gate_kind: %d is an input" id)

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
    match t.nodes.(id) with
    | Some n -> (match n.kind with Cell _ -> acc := id :: !acc | Primary_input -> ())
    | None -> ()
  done;
  !acc

let gate_count t = t.n_gates
let input_count t = t.n_inputs

(* --- mutators ------------------------------------------------------- *)

let set_cin t id cin =
  let n = node t id in
  (match n.kind with
  | Primary_input -> invalid_arg "Netlist.set_cin: primary input"
  | Cell _ -> ());
  if cin <= 0. then invalid_arg "Netlist.set_cin: cin <= 0";
  if cin <> n.cin then begin
    n.cin <- cin;
    (* the load this gate presents to its drivers changed; its own stage
       delay changed too (cin is its drive strength) *)
    touch_fanin_loads t n;
    mark_dirty t id
  end

let set_wire t id wire =
  if wire < 0. then invalid_arg "Netlist.set_wire: negative";
  let n = node t id in
  if wire <> n.wire then begin
    n.wire <- wire;
    invalidate_load t id;
    mark_dirty t id
  end

let set_fanin t id ~pin new_src =
  let n = node t id in
  if pin < 0 || pin >= Array.length n.fanins then invalid_arg "Netlist.set_fanin: pin";
  ignore (node t new_src);
  let old_src = n.fanins.(pin) in
  if old_src <> new_src then begin
    n.fanins.(pin) <- new_src;
    (* remove one occurrence of id from old_src's fanouts, unless another
       pin still reads old_src *)
    if not (Array.exists (fun f -> f = old_src) n.fanins) then
      (node t old_src).fanouts <-
        List.filter (fun f -> f <> id) (node t old_src).fanouts;
    (* the consumer is already listed when another pin reads new_src *)
    let pins_on_new =
      Array.fold_left (fun k f -> if f = new_src then k + 1 else k) 0 n.fanins
    in
    if pins_on_new = 1 then begin
      let tgt = node t new_src in
      tgt.fanouts <- id :: tgt.fanouts
    end;
    invalidate_load t old_src;
    invalidate_load t new_src;
    mark_dirty t old_src;
    mark_dirty t new_src;
    mark_dirty t id;
    structural_change t;
    patch_levels_from t id
  end

let replace_kind t id kind =
  let n = node t id in
  (match n.kind with
  | Primary_input -> invalid_arg "Netlist.replace_kind: primary input"
  | Cell old ->
    if Gk.arity old <> Gk.arity kind then
      invalid_arg "Netlist.replace_kind: arity mismatch");
  n.kind <- Cell kind;
  mark_dirty t id

let set_vt t id vt =
  let n = node t id in
  (match n.kind with
  | Primary_input -> invalid_arg "Netlist.set_vt: primary input"
  | Cell _ -> ());
  if not (Pops_process.Vt.equal n.vt vt) then begin
    (* non-structural, like replace_kind: widths and edges are untouched,
       only the node's own stage delay changes *)
    n.vt <- vt;
    mark_dirty t id
  end

let vt_of t id = (node t id).vt

let rewire_fanouts t ~from_ ~to_ ~except =
  let src = node t from_ in
  let consumers = List.filter (fun c -> not (List.mem c except)) src.fanouts in
  List.iter
    (fun c ->
      let cn = node t c in
      Array.iteri (fun pin f -> if f = from_ then set_fanin t cn.id ~pin to_) cn.fanins)
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
  let n = node t id in
  if n.fanouts <> [] then invalid_arg "Netlist.delete_gate: has consumers";
  if not (Float.is_nan t.out_load.(id)) then
    invalid_arg "Netlist.delete_gate: is a primary output";
  Array.iter
    (fun f ->
      if node_exists t f then begin
        (node t f).fanouts <- List.filter (fun x -> x <> id) (node t f).fanouts;
        invalidate_load t f;
        mark_dirty t f
      end)
    n.fanins;
  t.nodes.(id) <- None;
  t.n_live <- t.n_live - 1;
  (match n.kind with Cell _ -> t.n_gates <- t.n_gates - 1 | Primary_input -> ());
  structural_change t;
  mark_dirty t id

(* --- loads ----------------------------------------------------------- *)

let load_on t id =
  let n = node t id in
  let cached = t.load_cache.(id) in
  if Float.is_nan cached then begin
    (* count pins, not consumers: a gate reading this net on several pins
       presents its input capacitance once per pin *)
    let fanout_cap =
      List.fold_left
        (fun acc c ->
          let cn = node t c in
          let pins =
            Array.fold_left (fun k f -> if f = id then k + 1 else k) 0 cn.fanins
          in
          acc +. (float_of_int pins *. cn.cin))
        0. n.fanouts
    in
    let terminal = if Float.is_nan t.out_load.(id) then 0. else t.out_load.(id) in
    let load = fanout_cap +. n.wire +. terminal in
    t.load_cache.(id) <- load;
    load
  end
  else cached

(* --- CSR adjacency snapshot ------------------------------------------ *)

module Csr = struct
  type t = csr

  (* dense encoding of the cell kinds the library can hold; observers
     index per-kind coefficient tables with it instead of scanning the
     library's association list per node *)
  let code_kinds =
    [|
      Gk.Inv; Gk.Buf; Gk.Nand 2; Gk.Nand 3; Gk.Nand 4; Gk.Nor 2; Gk.Nor 3;
      Gk.Nor 4; Gk.Aoi21; Gk.Oai21; Gk.Aoi22; Gk.Oai22; Gk.Xor2; Gk.Xnor2;
    |]

  let code_of_kind = function
    | Primary_input -> -1
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
      | Gk.Nand _ | Gk.Nor _ -> -2)

  let bound c = c.c_bound
  let length c = c.c_n
  let node_of c = c.c_node_of
  let pos c = c.c_pos
  let level_off c = c.c_level_off
  let kind_code c = c.c_kind_code
  let vt_code c = c.c_vt
  let cin c = c.c_cin
  let load c = c.c_load
  let fanin_off c = c.c_fanin_off
  let fanin c = c.c_fanin
  let fanout_off c = c.c_fanout_off
  let fanout c = c.c_fanout
  let depth c = Array.length c.c_level_off - 2
end

(* the snapshot of the empty id range: deriving from it reads every id
   from its record, which is the cold build *)
let empty_csr =
  { c_bound = 0; c_n = 0; c_node_of = [||]; c_pos = [||]; c_level_off = [||];
    c_kind_code = [||]; c_vt = [||]; c_cin = [||]; c_load = [||];
    c_fanin_off = [| 0 |]; c_fanin = [||]; c_fanout_off = [| 0 |]; c_fanout = [||] }

(* [Array.blit] into a major-heap int array pays a write barrier per
   element; a typed loop stores plain words *)
let blit_ints (src : int array) so (dst : int array) d len =
  for k = 0 to len - 1 do
    dst.(d + k) <- src.(so + k)
  done

(* The snapshot of the current structure, derived from [prev] (synced to
   [csr_cursor]).  The order comes from the level cache by counting sort.
   Every mutator that changes an id's fan-ins, fan-out list, kind, Vt,
   cin or load logs the id, so an id below [prev]'s bound and absent from
   the log suffix kept all of them: its scalar entries stay, its
   adjacency segments are copied from [prev] in runs of consecutive ids.
   Only logged ids and ids past the old bound are read from their
   records, loads through {!load_on} (the canonical fold, so
   bit-identical to queries).  [prev]'s structure arrays are never
   written, since copies share them. *)
let build_csr t prev =
  let bound = t.next_id in
  let order, level_off = level_sorted_live t in
  let pos = Array.make (max 1 bound) (-1) in
  Array.iteri (fun i id -> pos.(id) <- i) order;
  let fresh = Bytes.make (max 1 bound) '\001' in
  Bytes.fill fresh 0 (min prev.c_bound bound) '\000';
  for i = t.csr_cursor to t.dirty_len - 1 do
    if t.dirty_log.(i) < bound then Bytes.set fresh t.dirty_log.(i) '\001'
  done;
  let fanin_off = Array.make (bound + 1) 0 and fanout_off = Array.make (bound + 1) 0 in
  for id = 0 to bound - 1 do
    let fi, fo =
      if Bytes.get fresh id = '\000' then
        ( prev.c_fanin_off.(id + 1) - prev.c_fanin_off.(id),
          prev.c_fanout_off.(id + 1) - prev.c_fanout_off.(id) )
      else
        match t.nodes.(id) with
        | None -> (0, 0)
        | Some nd -> (Array.length nd.fanins, List.length nd.fanouts)
    in
    fanin_off.(id + 1) <- fanin_off.(id) + fi;
    fanout_off.(id + 1) <- fanout_off.(id) + fo
  done;
  (* the scalar arrays are this netlist's own (copies copy them), sized
     by the node capacity: kept in place, ids below [prev]'s bound
     included, until the capacity grows *)
  let own a default =
    if Array.length a = Array.length t.nodes then a
    else begin
      let b = Array.make (Array.length t.nodes) default in
      Array.blit a 0 b 0 (min prev.c_bound bound);
      b
    end
  in
  let kind_code = own prev.c_kind_code (-1) and vt = own prev.c_vt 0
  and cin = own prev.c_cin Float.nan and load = own prev.c_load Float.nan in
  let fanin = Array.make (max 1 fanin_off.(bound)) 0
  and fanout = Array.make (max 1 fanout_off.(bound)) 0 in
  (* ids [a, b) kept their adjacency since [prev] *)
  let copy_run a b =
    if b > a then begin
      let fi = prev.c_fanin_off.(a) and fo = prev.c_fanout_off.(a) in
      blit_ints prev.c_fanin fi fanin fanin_off.(a) (prev.c_fanin_off.(b) - fi);
      blit_ints prev.c_fanout fo fanout fanout_off.(a) (prev.c_fanout_off.(b) - fo)
    end
  in
  let run = ref 0 in
  for id = 0 to bound - 1 do
    if Bytes.get fresh id <> '\000' then begin
      copy_run !run id;
      run := id + 1;
      match t.nodes.(id) with
      | None ->
        kind_code.(id) <- -1;
        vt.(id) <- 0;
        cin.(id) <- Float.nan;
        load.(id) <- Float.nan
      | Some nd ->
        kind_code.(id) <- Csr.code_of_kind nd.kind;
        vt.(id) <- Pops_process.Vt.to_int nd.vt;
        cin.(id) <- nd.cin;
        load.(id) <- load_on t id;
        blit_ints nd.fanins 0 fanin fanin_off.(id) (Array.length nd.fanins);
        List.iteri (fun i c -> fanout.(fanout_off.(id) + i) <- c) nd.fanouts
    end
  done;
  copy_run !run bound;
  {
    c_bound = bound;
    c_n = Array.length order;
    c_node_of = order;
    c_pos = pos;
    c_level_off = level_off;
    c_kind_code = kind_code;
    c_vt = vt;
    c_cin = cin;
    c_load = load;
    c_fanin_off = fanin_off;
    c_fanin = fanin;
    c_fanout_off = fanout_off;
    c_fanout = fanout;
  }

let csr t =
  let c =
    match t.csr_cache with
    | Some c when t.csr_struct_rev = t.struct_rev -> c
    | prev ->
      let c = build_csr t (Option.value prev ~default:empty_csr) in
      t.csr_cache <- Some c;
      t.csr_struct_rev <- t.struct_rev;
      t.csr_cursor <- t.dirty_len;
      c
  in
  (* scalar resync: under an unchanged structural revision the id set,
     edges and levels are fixed, so dirty-log entries can only mean a
     kind / cin / wire / terminal-load change — refresh those in place *)
  if t.csr_cursor < t.dirty_len then begin
    for i = t.csr_cursor to t.dirty_len - 1 do
      let id = t.dirty_log.(i) in
      if id < c.c_bound && t.nodes.(id) <> None then begin
        let nd = node t id in
        c.c_kind_code.(id) <- Csr.code_of_kind nd.kind;
        c.c_vt.(id) <- Pops_process.Vt.to_int nd.vt;
        c.c_cin.(id) <- nd.cin;
        c.c_load.(id) <- load_on t id
      end
    done;
    t.csr_cursor <- t.dirty_len
  end;
  c

(* --- validation ------------------------------------------------------ *)

(* whether [f] is among the first [i] entries of [fi] *)
(* pin [i] is the first to read its driver, an id below [bound] *)
let distinct_pin (fi : int array) i bound =
  let f = fi.(i) in
  f >= 0 && f < bound && not (read_before fi f i)

(* Consumers-by-driver CSR derived from the fanin arrays, each distinct
   (driver, consumer) pair once — the same dedup contract the fanout
   lists maintain.  Flat int arrays only, so the two-way fanout-list /
   fanin-array consistency check below stays O(V + E) with no hashing or
   per-edge boxing (a 1M-gate design validates in well under a second,
   see test_csr). *)
let consumer_csr t =
  let bound = max 1 t.next_id in
  let off = Array.make (bound + 1) 0 in
  for id = 0 to t.next_id - 1 do
    match t.nodes.(id) with
    | None -> ()
    | Some n ->
      for i = 0 to Array.length n.fanins - 1 do
        if distinct_pin n.fanins i bound then
          off.(n.fanins.(i) + 1) <- off.(n.fanins.(i) + 1) + 1
      done
  done;
  for f = 0 to bound - 1 do
    off.(f + 1) <- off.(f + 1) + off.(f)
  done;
  let consumers = Array.make (max 1 off.(bound)) 0 in
  let cur = Array.copy off in
  for id = 0 to t.next_id - 1 do
    match t.nodes.(id) with
    | None -> ()
    | Some n ->
      for i = 0 to Array.length n.fanins - 1 do
        if distinct_pin n.fanins i bound then begin
          let f = n.fanins.(i) in
          consumers.(cur.(f)) <- id;
          cur.(f) <- cur.(f) + 1
        end
      done
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
   consumer (per the fanin arrays) must be named by its driver's fanout
   list, and the list must not name anyone twice.  [emit] receives
   [`Missing (driver, consumer)] or [`Duplicate driver].  Listed-but-wrong
   entries are the backward direction, checked per node by the caller. *)
let check_fanout_sync t emit =
  let off, consumers = consumer_csr t in
  let bound = max 1 t.next_id in
  (* stamp = f marks the consumers f's fanout list names this round *)
  let stamp = Array.make bound (-1) in
  for f = 0 to t.next_id - 1 do
    match t.nodes.(f) with
    | None -> ()
    | Some n ->
      let listed = stamp_listed stamp f bound 0 n.fanouts in
      for i = off.(f) to off.(f + 1) - 1 do
        if stamp.(consumers.(i)) <> f then emit (`Missing (f, consumers.(i)))
      done;
      if listed > off.(f + 1) - off.(f) then emit (`Duplicate f)
  done

(* The validation pass: it does not stop at the first problem — every
   violation becomes one {!Diag.t}, so a front end can report the whole
   state of a malformed netlist at once.  [name] renders node ids (the
   CLI passes the .bench signal names). *)
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
       else
         let fi = (node t c).fanins in
         if not (read_before fi id (Array.length fi)) then
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
    match t.nodes.(id) with
    | None -> ()
    | Some n ->
      (match n.kind with
      | Primary_input ->
        if Array.length n.fanins <> 0 then
          add
            (Diag.makef Diag.Internal ~subject:(render id)
               "primary input with %d fan-ins" (Array.length n.fanins))
      | Cell kind ->
        let arity = Gk.arity kind in
        if Array.length n.fanins <> arity then
          add
            (Diag.makef Diag.Internal ~subject:(render id)
               "%s gate with %d fan-ins (arity %d)" (Gk.name kind)
               (Array.length n.fanins) arity);
        if n.cin <= 0. then
          add
            (Diag.makef Diag.Netlist_bad_cin ~subject:(render id)
               "non-positive input capacitance %g fF" n.cin));
      for i = 0 to Array.length n.fanins - 1 do
        if not (node_exists t n.fanins.(i)) then
          add
            (Diag.makef Diag.Netlist_dangling ~subject:(render id)
               "fan-in references deleted node %d" n.fanins.(i))
      done;
      check_listed id n.fanouts;
      (match n.kind with
      | Cell _ when n.fanouts = [] && Float.is_nan t.out_load.(id) ->
        add
          (Diag.makef Diag.Netlist_zero_fanout ~subject:(render id)
             "gate drives nothing and is not a primary output")
      | _ -> ())
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
  List.rev !diags

(* the first error among the diagnostics, on one line *)
let validate t =
  match List.find_opt (fun d -> d.Diag.severity = Diag.Error) (validate_diags t) with
  | Some d -> Error (Diag.one_line d)
  | None -> Ok ()

let kind_histogram t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun id ->
      match (node t id).kind with
      | Cell kind ->
        let key = Gk.name kind in
        let prev = Option.value ~default:(kind, 0) (Hashtbl.find_opt tbl key) in
        Hashtbl.replace tbl key (kind, snd prev + 1)
      | Primary_input -> ())
    (gate_ids t);
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare (Gk.name a) (Gk.name b))

(* gate ids ascending, the order the fingerprints fix, into one unboxed
   accumulator: no id list and no closure per gate *)
let total_area t lib =
  let acc = ref 0. in
  for id = 0 to t.next_id - 1 do
    match t.nodes.(id) with
    | Some { kind = Cell kind; cin; _ } ->
      acc := !acc +. Pops_cell.Cell.area (Pops_cell.Library.find lib kind) ~cin
    | Some { kind = Primary_input; _ } | None -> ()
  done;
  !acc

(* Same fold as {!total_area} (same order, so an all-LVT netlist weighs
   bit-identically to its plain area), each gate's width scaled by its Vt
   class's leakage factor. *)
let total_leakage_area t lib =
  let acc = ref 0. in
  for id = 0 to t.next_id - 1 do
    match t.nodes.(id) with
    | Some { kind = Cell kind; cin; vt; _ } ->
      let cell = Pops_cell.Library.find_vt lib kind vt in
      acc := !acc +. (Pops_cell.Cell.area cell ~cin *. cell.Pops_cell.Cell.leak_factor)
    | Some { kind = Primary_input; _ } | None -> ()
  done;
  !acc

let copy t =
  (* a synced snapshot carries over, sharing the structure arrays only
     [build_csr] writes, owning the scalar ones [csr] resyncs in place *)
  let csr_cache, csr_struct_rev =
    match t.csr_cache with
    | Some _ when t.csr_struct_rev = t.struct_rev ->
      let c = csr t and cp = Array.copy in
      ( Some { c with c_kind_code = cp c.c_kind_code; c_vt = cp c.c_vt;
               c_cin = cp c.c_cin; c_load = cp c.c_load },
        t.struct_rev )
    | Some _ | None -> (None, -1)
  in
  {
    t with
    nodes =
      Array.map
        (Option.map (fun n ->
             { n with fanins = Array.copy n.fanins; fanouts = n.fanouts }))
        t.nodes;
    out_ids = Array.copy t.out_ids;
    out_load = Array.copy t.out_load;
    out_rank = Array.copy t.out_rank;
    load_cache = Array.copy t.load_cache;
    level = Array.copy t.level;
    (* the copy starts its own edit history: observers of the original
       must not see the copy's edits and vice versa *)
    dirty_log = Array.make 64 0;
    dirty_len = 0;
    csr_cache;
    csr_struct_rev;
    csr_cursor = 0;
  }

let restore t ~from =
  (* nodes live before the rewind must be cleared by observers, nodes
     live after it re-evaluated: log both sides (duplicates are fine,
     observers already de-duplicate their wavefront) *)
  let pre = ref [] in
  for id = 0 to t.next_id - 1 do
    if t.nodes.(id) <> None then pre := id :: !pre
  done;
  t.nodes <-
    Array.map
      (Option.map (fun n -> { n with fanins = Array.copy n.fanins }))
      from.nodes;
  t.next_id <- from.next_id;
  t.input_ids <- from.input_ids;
  t.n_inputs <- from.n_inputs;
  t.out_ids <- Array.copy from.out_ids;
  t.n_out <- from.n_out;
  t.out_shared <- from.out_shared;
  t.inputs_fwd <- from.inputs_fwd;
  t.outputs_fwd <- from.outputs_fwd;
  t.out_load <- Array.copy from.out_load;
  t.out_rank <- Array.copy from.out_rank;
  t.load_cache <- Array.copy from.load_cache;
  t.level <- Array.copy from.level;
  t.levels_valid <- from.levels_valid;
  t.topo_cache <- from.topo_cache;
  t.level_counts <- Option.map Array.copy from.level_counts;
  t.n_live <- from.n_live;
  t.n_gates <- from.n_gates;
  t.struct_rev <- t.struct_rev + 1;
  t.csr_cache <- None;
  t.csr_struct_rev <- -1;
  List.iter (mark_dirty t) !pre;
  for id = 0 to t.next_id - 1 do
    if t.nodes.(id) <> None then mark_dirty t id
  done;
  (* no snapshot to sync: the next [csr] reads every record anyway *)
  t.csr_cursor <- t.dirty_len

let pp_stats ppf t =
  Format.fprintf ppf "@[<v>netlist: %d inputs, %d gates, %d outputs, depth %d@ "
    (input_count t) (gate_count t)
    t.n_out
    (depth t);
  List.iter
    (fun (kind, count) -> Format.fprintf ppf "%s: %d@ " (Gk.name kind) count)
    (kind_histogram t);
  Format.fprintf ppf "@]"
