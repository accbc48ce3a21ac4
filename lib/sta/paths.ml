module Netlist = Pops_netlist.Netlist
module Gk = Pops_cell.Gate_kind
module Edge = Pops_delay.Edge
module Path = Pops_delay.Path
module Model = Pops_delay.Model

type extracted = { nodes : int list; path : Path.t; total_gates : int }

let is_gate t id =
  match Netlist.kind t id with
  | Netlist.Cell _ -> true
  | Netlist.Primary_input -> false

let extract ?input_slope ~lib t nodes =
  let nodes = List.filter (is_gate t) nodes in
  if nodes = [] then invalid_arg "Paths.extract: no gates in path";
  let rec check = function
    | a :: (b :: _ as rest) ->
      if not (Array.exists (fun f -> f = a) (Netlist.fanins t b)) then
        invalid_arg
          (Printf.sprintf "Paths.extract: %d does not drive %d" a b);
      check rest
    | [ _ ] | [] -> ()
  in
  check nodes;
  let tech = Netlist.tech t in
  let arr = Array.of_list nodes in
  let n = Array.length arr in
  let stage_of i id =
    let cell = Pops_cell.Library.find_vt lib (Netlist.gate_kind t id) (Netlist.vt_of t id) in
    let total_load = Netlist.load_on t id in
    let branch =
      if i = n - 1 then 0.
      else
        Float.max 0. (total_load -. Netlist.cin t arr.(i + 1))
    in
    { Path.cell; branch }
  in
  let stages = List.mapi stage_of nodes in
  let c_out =
    let last_load = Netlist.load_on t arr.(n - 1) in
    Float.max last_load (0.5 *. tech.Pops_process.Tech.cmin)
  in
  let drive_cin = Netlist.cin t arr.(0) in
  let path = Path.make ?input_slope ~drive_cin ~tech ~c_out stages in
  { nodes; path; total_gates = n }

(* Per-kind-code delay coefficients for the estimate pass, mirroring
   {!Timing.build_tables}: everything {!Model.stage_delay} reads,
   pre-multiplied where the grouping keeps results bit-identical
   ([s *. tau] is the left-most association either way).  Building them
   is 14 library lookups per call; using them is allocation-free per
   gate, where the [Model.stage_delay] call boxed a tuple per edge. *)
type est_coeffs = {
  ec_have : bool array;
  ec_stau_hl : float array;  (* (s_hl *. tau) *. tau_factor, by 3*code+vt *)
  ec_stau_lh : float array;
  ec_cm_hl : float array;
  ec_cm_lh : float array;
  ec_par : float array;
  ec_slope_r : float array;  (* vtp_red *. tau_in *. 0.5 by Vt, tau_in = 2 tau *)
  ec_slope_f : float array;  (* vtn_red *. tau_in *. 0.5 by Vt *)
}

let est_coeffs ~lib tech =
  let n = Array.length Netlist.Csr.code_kinds in
  let nv = Pops_process.Vt.count in
  let have = Array.make n false
  and stau_hl = Array.make (nv * n) Float.nan
  and stau_lh = Array.make (nv * n) Float.nan
  and cm_hl = Array.make n Float.nan
  and cm_lh = Array.make n Float.nan
  and par = Array.make n Float.nan in
  Array.iteri
    (fun code kind ->
      match Pops_cell.Library.find lib kind with
      | (cell : Pops_cell.Cell.t) ->
        have.(code) <- true;
        Array.iter
          (fun vt ->
            let vc = Pops_process.Vt.to_int vt in
            let cv = Pops_cell.Library.find_vt lib kind vt in
            stau_hl.((nv * code) + vc) <-
              cv.s_hl *. cv.tech.Pops_process.Tech.tau *. cv.tau_factor;
            stau_lh.((nv * code) + vc) <-
              cv.s_lh *. cv.tech.Pops_process.Tech.tau *. cv.tau_factor)
          Pops_process.Vt.all;
        cm_hl.(code) <- cell.cm_ratio_hl;
        cm_lh.(code) <- cell.cm_ratio_lh;
        par.(code) <- cell.par_ratio
      | exception Not_found -> ())
    Netlist.Csr.code_kinds;
  let tau_in = 2. *. tech.Pops_process.Tech.tau in
  {
    ec_have = have;
    ec_stau_hl = stau_hl;
    ec_stau_lh = stau_lh;
    ec_cm_hl = cm_hl;
    ec_cm_lh = cm_lh;
    ec_par = par;
    ec_slope_r =
      Array.map
        (fun vt -> Pops_process.Tech.vtp_reduced_vt tech vt *. tau_in *. 0.5)
        Pops_process.Vt.all;
    ec_slope_f =
      Array.map
        (fun vt -> Pops_process.Tech.vtn_reduced_vt tech vt *. tau_in *. 0.5)
        Pops_process.Vt.all;
  }

(* edge-agnostic per-gate delay estimate (nominal input slope, worst
   output edge) used as the additive metric for path enumeration; dense
   array indexed by node id, written into [est] (caller-sized).  The
   arithmetic groups exactly as {!Model.stage_delay} groups it
   ([x /. 2.] written [x *. 0.5] is exact), so estimates are
   bit-identical to the per-gate model-call loop this replaces. *)
let delay_estimates_into ~lib t est =
  let ec = est_coeffs ~lib (Netlist.tech t) in
  let c = Netlist.csr t in
  let node_of = Netlist.Csr.node_of c in
  let kind_code = Netlist.Csr.kind_code c in
  let vt_code = Netlist.Csr.vt_code c in
  let cin = Netlist.Csr.cin c in
  let load = Netlist.Csr.load c in
  for i = 0 to Netlist.Csr.length c - 1 do
    let id = node_of.(i) in
    let code = kind_code.(id) in
    if code = -1 then est.(id) <- 0.
    else if code = -2 || not ec.ec_have.(code) then raise Not_found
    else begin
      let vc = vt_code.(id) in
      let sx = (3 * code) + vc in
      let cin_v = cin.(id) in
      let cload = load.(id) +. (ec.ec_par.(code) *. cin_v) in
      let tau_r = ec.ec_stau_lh.(sx) *. cload /. cin_v in
      let tau_f = ec.ec_stau_hl.(sx) *. cload /. cin_v in
      let cm_r = ec.ec_cm_lh.(code) *. cin_v in
      let cm_f = ec.ec_cm_hl.(code) *. cin_v in
      let d_r =
        ec.ec_slope_r.(vc)
        +. ((1. +. (2. *. cm_r /. (cm_r +. cload))) *. tau_r *. 0.5)
      in
      let d_f =
        ec.ec_slope_f.(vc)
        +. ((1. +. (2. *. cm_f /. (cm_f +. cload))) *. tau_f *. 0.5)
      in
      est.(id) <- Float.max d_r d_f
    end
  done

let delay_estimates ~lib t =
  let est = Array.make (Netlist.id_bound t) 0. in
  delay_estimates_into ~lib t est;
  est

(* The [phase]-th window of at most [max_cone] elements, counted from
   the {e end} of [l]: phase 0 is the endpoint-side window, each higher
   phase moves one window upstream, and phases wrap once they pass the
   head — so walking the phase visits every segment of a long path.
   Lists shorter than [max_cone] are returned whole at every phase. *)
let cone_window ~max_cone ~phase l =
  let len = List.length l in
  if len <= max_cone then l
  else begin
    let segments = (len + max_cone - 1) / max_cone in
    let p = phase mod segments in
    let stop = len - (p * max_cone) in
    let start = max 0 (stop - max_cone) in
    let rec drop i = function
      | _ :: rest when i > 0 -> drop (i - 1) rest
      | rest -> rest
    in
    let rec take i = function
      | x :: rest when i > 0 -> x :: take (i - 1) rest
      | _ -> []
    in
    take (stop - start) (drop start l)
  end

let critical ?input_slope ?timing ?max_cone ?(phase = 0) ~lib t =
  let timing =
    match timing with
    | Some tm ->
      Timing.update tm;
      tm
    | None -> Timing.analyze ?input_slope ~lib t
  in
  let nodes = Timing.critical_path timing in
  let total = List.length nodes in
  let nodes =
    match max_cone with
    | Some n -> (
      (* the head window of a path one node longer than a multiple of
         [n] holds only the primary input: wrap it to the endpoint side *)
      match cone_window ~max_cone:n ~phase nodes with
      | [ pi ] when not (is_gate t pi) -> cone_window ~max_cone:n ~phase:0 nodes
      | w -> w)
    | None -> nodes
  in
  { (extract ?input_slope ~lib t nodes) with total_gates = total }

module Pq = struct
  (* tiny max-priority queue on (priority, payload) *)
  type 'a t = { mutable heap : (float * 'a) array; mutable size : int }

  let create () = { heap = Array.make 64 (0., Obj.magic 0); size = 0 }

  let swap q i j =
    let tmp = q.heap.(i) in
    q.heap.(i) <- q.heap.(j);
    q.heap.(j) <- tmp

  let push q prio v =
    if q.size >= Array.length q.heap then begin
      let bigger = Array.make (2 * Array.length q.heap) q.heap.(0) in
      Array.blit q.heap 0 bigger 0 q.size;
      q.heap <- bigger
    end;
    q.heap.(q.size) <- (prio, v);
    let i = ref q.size in
    q.size <- q.size + 1;
    while !i > 0 && fst q.heap.((!i - 1) / 2) < fst q.heap.(!i) do
      swap q !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop q =
    if q.size = 0 then None
    else begin
      let top = q.heap.(0) in
      q.size <- q.size - 1;
      q.heap.(0) <- q.heap.(q.size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let largest = ref !i in
        if l < q.size && fst q.heap.(l) > fst q.heap.(!largest) then largest := l;
        if r < q.size && fst q.heap.(r) > fst q.heap.(!largest) then largest := r;
        if !largest <> !i then begin
          swap q !i !largest;
          i := !largest
        end
        else continue := false
      done;
      Some top
    end
end

(* shared tail of both k_worst implementations: re-rank candidates by
   exact extracted path delay; deduplicate on the gate-only node list
   (two raw paths may share every gate and differ only in the primary
   input) *)
let rank_candidates ?input_slope ~lib t ~k candidates =
  let seen = Hashtbl.create 16 in
  let extracted =
    List.filter_map
      (fun nodes ->
        match extract ?input_slope ~lib t nodes with
        | e ->
          let key = String.concat "," (List.map string_of_int e.nodes) in
          if Hashtbl.mem seen key then None
          else begin
            Hashtbl.replace seen key ();
            Some e
          end
        | exception Invalid_argument _ -> None)
      candidates
  in
  let with_delay =
    List.map
      (fun e ->
        let sizing = Array.of_list (List.map (Netlist.cin t) e.nodes) in
        (Path.delay_worst e.path sizing, e))
      extracted
  in
  List.sort (fun (d1, _) (d2, _) -> compare d2 d1) with_delay
  |> List.filteri (fun i _ -> i < k)
  |> List.map snd

(* Reusable enumeration state: the estimate/suffix/output metric arrays,
   the arena of search-tree entries and the unboxed priority queue
   (parallel float-priority / int-payload arrays — the tuple-based
   {!Pq} boxed a float and a pair per push, the dominant term of the
   enumerator's ~40 minor words per gate).  Hand one scratch to repeated
   {!k_worst} calls and the steady-state allocation per call drops to
   the materialized winner paths. *)
type scratch = {
  mutable sc_est : float array;
  mutable sc_suffix : float array;
  mutable sc_out : bool array;
  mutable sc_qp : float array;  (* priorities *)
  mutable sc_qe : int array;  (* payloads: arena entry indices *)
  mutable sc_qn : int;
  mutable sc_node : int array;
  mutable sc_parent : int array;
  mutable sc_d : float array;
  mutable sc_len : int;
}

let make_scratch () =
  {
    sc_est = [||];
    sc_suffix = [||];
    sc_out = [||];
    sc_qp = Array.make 1024 0.;
    sc_qe = Array.make 1024 0;
    sc_qn = 0;
    sc_node = Array.make 1024 0;
    sc_parent = Array.make 1024 (-1);
    sc_d = Array.make 1024 0.;
    sc_len = 0;
  }

let scratch_fit sc bound =
  if Array.length sc.sc_est < bound then begin
    sc.sc_est <- Array.make bound 0.;
    sc.sc_suffix <- Array.make bound 0.;
    sc.sc_out <- Array.make bound false
  end;
  sc.sc_qn <- 0;
  sc.sc_len <- 0

(* max-heap on (priority, entry); same sift order as {!Pq}, so pop
   sequences — and hence the surviving paths — are identical.  The
   priority is the entry's distance plus its node's suffix bound, read
   out of the arena rather than passed in: a float argument to a
   function that is not inlined is boxed on every push. *)
let q_push sc e =
  if sc.sc_qn >= Array.length sc.sc_qp then begin
    let n = Array.length sc.sc_qp in
    let qp = Array.make (2 * n) 0. and qe = Array.make (2 * n) 0 in
    Array.blit sc.sc_qp 0 qp 0 n;
    Array.blit sc.sc_qe 0 qe 0 n;
    sc.sc_qp <- qp;
    sc.sc_qe <- qe
  end;
  let qp = sc.sc_qp and qe = sc.sc_qe in
  qp.(sc.sc_qn) <- sc.sc_d.(e) +. sc.sc_suffix.(sc.sc_node.(e));
  qe.(sc.sc_qn) <- e;
  let i = ref sc.sc_qn in
  sc.sc_qn <- sc.sc_qn + 1;
  while !i > 0 && qp.((!i - 1) / 2) < qp.(!i) do
    let p = (!i - 1) / 2 in
    let tp = qp.(p) and te = qe.(p) in
    qp.(p) <- qp.(!i);
    qe.(p) <- qe.(!i);
    qp.(!i) <- tp;
    qe.(!i) <- te;
    i := p
  done

(* pops the top entry index, -1 when empty *)
let q_pop sc =
  if sc.sc_qn = 0 then -1
  else begin
    let qp = sc.sc_qp and qe = sc.sc_qe in
    let top = qe.(0) in
    sc.sc_qn <- sc.sc_qn - 1;
    qp.(0) <- qp.(sc.sc_qn);
    qe.(0) <- qe.(sc.sc_qn);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let largest = ref !i in
      if l < sc.sc_qn && qp.(l) > qp.(!largest) then largest := l;
      if r < sc.sc_qn && qp.(r) > qp.(!largest) then largest := r;
      if !largest <> !i then begin
        let tp = qp.(!i) and te = qe.(!i) in
        qp.(!i) <- qp.(!largest);
        qe.(!i) <- qe.(!largest);
        qp.(!largest) <- tp;
        qe.(!largest) <- te;
        i := !largest
      end
      else continue := false
    done;
    top
  end

(* appends an entry at distance 0; the caller stores any other
   distance into [sc_d] itself, for the same boxing reason as {!q_push} *)
let arena_push sc node parent =
  if sc.sc_len >= Array.length sc.sc_node then begin
    let n = Array.length sc.sc_node in
    let grow_i a =
      let b = Array.make (2 * n) 0 in
      Array.blit a 0 b 0 n;
      b
    in
    sc.sc_node <- grow_i sc.sc_node;
    sc.sc_parent <- grow_i sc.sc_parent;
    let d' = Array.make (2 * n) 0. in
    Array.blit sc.sc_d 0 d' 0 n;
    sc.sc_d <- d'
  end;
  let e = sc.sc_len in
  sc.sc_node.(e) <- node;
  sc.sc_parent.(e) <- parent;
  sc.sc_d.(e) <- 0.;
  sc.sc_len <- e + 1;
  e

(* Best-first enumeration over the CSR arrays with an {e arena} of
   search-tree entries (node, parent, distance) in three flat arrays:
   the frontier never materializes a per-path list, so enumeration space
   is O(V + E + pushes) regardless of path depth; only the <= 3k winners
   are materialized, by walking parent pointers.  Push order, priorities
   and the pop bound are identical to the legacy enumeration, so the
   surviving paths are too. *)
let k_worst ?scratch ?(k = 5) ?input_slope ~lib t =
  let sc = match scratch with Some sc -> sc | None -> make_scratch () in
  scratch_fit sc (Netlist.id_bound t);
  delay_estimates_into ~lib t sc.sc_est;
  let est = sc.sc_est in
  let c = Netlist.csr t in
  let node_of = Netlist.Csr.node_of c in
  let fanout_off = Netlist.Csr.fanout_off c in
  let fanout = Netlist.Csr.fanout c in
  (* longest-suffix bound per node under the estimate metric; CSR fanout
     entries replay the fanout-list fold order *)
  let suffix = sc.sc_suffix in
  for i = Netlist.Csr.length c - 1 downto 0 do
    let id = node_of.(i) in
    let best = ref 0. in
    for fo = fanout_off.(id) to fanout_off.(id + 1) - 1 do
      let cn = fanout.(fo) in
      best := Float.max !best (est.(cn) +. suffix.(cn))
    done;
    suffix.(id) <- !best
  done;
  let output_flag = sc.sc_out in
  let outputs = Netlist.outputs t in
  List.iter (fun (id, _) -> output_flag.(id) <- true) outputs;
  List.iter
    (fun pi -> q_push sc (arena_push sc pi (-1)))
    (Netlist.inputs t);
  let results = ref [] and n_results = ref 0 and pops = ref 0 in
  let want = 3 * k in
  let rec search () =
    if !n_results >= want || !pops > 200_000 then ()
    else
      let e = q_pop sc in
      if e < 0 then ()
      else begin
        incr pops;
        let head = sc.sc_node.(e) in
        if output_flag.(head) then begin
          results := e :: !results;
          incr n_results
        end;
        let d = sc.sc_d.(e) in
        for fo = fanout_off.(head) to fanout_off.(head + 1) - 1 do
          let cn = fanout.(fo) in
          let e' = arena_push sc cn e in
          sc.sc_d.(e') <- d +. est.(cn);
          q_push sc e'
        done;
        search ()
      end
  in
  search ();
  (* un-flag before returning: the scratch may be reused on a netlist
     with a different output set *)
  let path_of_entry e =
    let rec go e acc =
      if e < 0 then acc else go sc.sc_parent.(e) (sc.sc_node.(e) :: acc)
    in
    go e []
  in
  let candidates = List.rev_map path_of_entry !results in
  List.iter (fun (id, _) -> output_flag.(id) <- false) outputs;
  rank_candidates ?input_slope ~lib t ~k candidates

(* the pre-arena enumeration (cons-cell payloads, list topological
   order); the oracle k_worst is tested against *)
let k_worst_reference ?(k = 5) ?input_slope ~lib t =
  let est = delay_estimates ~lib t in
  (* longest-suffix bound per node under the estimate metric *)
  let suffix = Array.make (Netlist.id_bound t) 0. in
  let order = List.rev (Netlist.topological_order t) in
  List.iter
    (fun id ->
      let n = Netlist.node t id in
      let best =
        List.fold_left
          (fun acc c -> Float.max acc (est.(c) +. suffix.(c)))
          0. n.Netlist.fanouts
      in
      suffix.(id) <- best)
    order;
  let output_flag = Array.make (Netlist.id_bound t) false in
  List.iter (fun (id, _) -> output_flag.(id) <- true) (Netlist.outputs t);
  let is_output id = output_flag.(id) in
  let q = Pq.create () in
  List.iter
    (fun pi -> Pq.push q suffix.(pi) (0., [ pi ]))
    (Netlist.inputs t);
  let results = ref [] and n_results = ref 0 and pops = ref 0 in
  let want = 3 * k in
  let rec search () =
    if !n_results >= want || !pops > 200_000 then ()
    else
      match Pq.pop q with
      | None -> ()
      | Some (_, (d, rev_nodes)) ->
        incr pops;
        let head = List.hd rev_nodes in
        let node = Netlist.node t head in
        if is_output head then begin
          results := List.rev rev_nodes :: !results;
          incr n_results
        end;
        List.iter
          (fun c ->
            let d' = d +. est.(c) in
            Pq.push q (d' +. suffix.(c)) (d', c :: rev_nodes))
          node.Netlist.fanouts;
        search ()
  in
  search ();
  rank_candidates ?input_slope ~lib t ~k (List.rev !results)

(* Slack-driven selection state: the slacks annotation endpoints are
   ranked by, and the netlist whose outputs are ranked. *)
type incr = {
  in_s : Timing.slacks;
  in_nl : Netlist.t;
  mutable in_stamp : int array;  (* per id: the last call that selected it *)
  mutable in_calls : int;
}

let incr_make nl slacks = { in_s = slacks; in_nl = nl; in_stamp = [||]; in_calls = 0 }

let k_worst_incr ?(k = 5) ?(min_slack = 0.) ?(max_cone = 48) ?(phase = 0)
    ?input_slope ~lib q =
  let s = q.in_s and t = q.in_nl in
  let tm = Timing.slacks_timing s in
  (* Bound the candidates probed for disjointness, not just the winners:
     on high-fanout designs thousands of violating endpoints share one
     critical spine, and probing every one of them each round costs more
     than the round's re-timing. *)
  let candidates =
    Timing.worst_endpoints s ~min_slack ~limit:(max 64 (16 * k))
  in
  (* the gates of this call's winners carry [call] in [in_stamp] *)
  q.in_calls <- q.in_calls + 1;
  let call = q.in_calls in
  let bound = Netlist.id_bound t in
  if Array.length q.in_stamp < bound then
    q.in_stamp <- Array.make (max bound (2 * Array.length q.in_stamp)) 0;
  let stamp = q.in_stamp in
  let results = ref [] and n_results = ref 0 in
  let rec probe = function
    | [] -> ()
    | _ when !n_results >= k -> ()
    | id :: rest ->
      (* bounded cone: the protocol underneath is a bounded-path
         engine, so hand it one [max_cone]-node window of the critical
         path — phase 0 is the endpoint-side window, each higher phase
         walks one window upstream (the flow advances the phase when the
         current windows saturate).  A bounded edit window also keeps
         the next round's incremental re-time confined to a small
         fan-out cone.  Most probes lose the disjointness test, which
         walks the window's provenance chain against the stamps and
         allocates nothing; only a winner's window is materialized
         ({!Timing.path_window}). *)
      (* phase 0 needs no length: the endpoint-side window stops at
         [max_cone] nodes (or the head) on its own, so losing probes
         cost O(max_cone), not O(depth); the full-path walk is deferred
         to the winners (and to walked phases, where the window index
         depends on the path length) *)
      let skip, len_ =
        if phase = 0 then (0, max_cone)
        else begin
          let total = Timing.path_length tm id in
          let segments = (total + max_cone - 1) / max_cone in
          let skip = phase mod segments * max_cone in
          (skip, min max_cone (total - skip))
        end
      in
      (* only gates are ever stamped, so the walk may test every node *)
      (if not (Timing.window_marked tm id ~skip ~len:len_ stamp call) then
         let nodes = Timing.path_window tm id ~skip ~len:len_ in
         match extract ?input_slope ~lib t nodes with
         | e ->
           List.iter (fun g -> if is_gate t g then stamp.(g) <- call) nodes;
           results := { e with total_gates = Timing.path_length tm id } :: !results;
           incr n_results
         | exception Invalid_argument _ -> ());
      probe rest
  in
  probe candidates;
  List.rev !results

let apply_sizing t nodes sizing =
  if List.length nodes <> Array.length sizing then
    invalid_arg "Paths.apply_sizing: length mismatch";
  List.iteri (fun i id -> Netlist.set_cin t id sizing.(i)) nodes
