module Netlist = Pops_netlist.Netlist
module Gk = Pops_cell.Gate_kind
module Edge = Pops_delay.Edge
module Model = Pops_delay.Model

type arrival = { time : float; slope : float; from_ : (int * Edge.t) option }

(* Per-kind-code delay coefficients, hoisted out of the propagation
   sweep: everything {!Model.stage_delay} reads from the cell record,
   pre-multiplied where the grouping keeps float results bit-identical
   ([(s *. tau) *. tau_factor] is exactly how {!Model.transition_time}
   associates, and the LVT factor is exactly 1.0).  The slope products
   and reduced thresholds are per (kind, Vt class): [stau_*] is indexed
   [3 * kind_code + vt_code] and [vt*_red] by the Vt code alone (the
   threshold shift is kind-independent).  A kind missing from the
   library has [have = false] and propagating through it raises
   [Not_found], exactly like a per-node library lookup. *)
type tables = {
  have : bool array;
  klass : int array;  (* 0 inverting, 1 xor-class, 2 buffer *)
  stau_hl : float array;  (* (s_hl *. tau) *. tau_factor, by 3*code+vt *)
  stau_lh : float array;
  cm_hl : float array;  (* coupling-capacitance ratio, falling output *)
  cm_lh : float array;
  par : float array;  (* parasitic ratio: cpar = par *. cin *)
  vtn_red : float array;  (* reduced thresholds by Vt code *)
  vtp_red : float array;
}

let build_tables ~lib =
  let n = Array.length Netlist.Csr.code_kinds in
  let nv = Pops_process.Vt.count in
  let have = Array.make n false
  and klass = Array.make n 0
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
        klass.(code) <-
          (match kind with
          | Gk.Xor2 | Gk.Xnor2 -> 1
          | Gk.Buf -> 2
          | Gk.Inv | Gk.Nand _ | Gk.Nor _ | Gk.Aoi21 | Gk.Oai21 | Gk.Aoi22
          | Gk.Oai22 -> 0);
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
  let tech = Pops_cell.Library.tech lib in
  {
    have;
    klass;
    stau_hl;
    stau_lh;
    cm_hl;
    cm_lh;
    par;
    vtn_red =
      Array.map (fun vt -> Pops_process.Tech.vtn_reduced_vt tech vt)
        Pops_process.Vt.all;
    vtp_red =
      Array.map (fun vt -> Pops_process.Tech.vtp_reduced_vt tech vt)
        Pops_process.Vt.all;
  }

(* Arrivals live in one dense float array with four slots per node id —
   [4id] rise time, [4id+1] rise slope, [4id+2] fall time, [4id+3] fall
   slope — so reading both edges of a fan-in in the propagation sweep
   touches one cache line instead of four arrays.  [time = nan] means no
   arrival is known for that (node, edge).  Provenance is packed as
   [2 * src + edge_bit], -1 for a primary input.  [cursor] is this
   analysis' position in the netlist's dirty log: queries first fold the
   log back in through {!update}, re-propagating only while arrivals
   actually change. *)
type t = {
  netlist : Netlist.t;
  lib : Pops_cell.Library.t;
  tables : tables;
  input_slope : float;
  input_arrival : float;
  mutable cap : int;  (* arrays valid for ids < cap *)
  mutable arr : float array;  (* 4 * cap arrival slots *)
  mutable rise_from : int array;
  mutable fall_from : int array;
  mutable cursor : int;
  (* worklist scratch: per-id queued marks, reused across updates (the
     drain unmarks every node it pops, so the buffer is all-zero between
     uses) *)
  mutable wl_mark : Bytes.t;
  (* eval scratch (running best per edge): one block reused across every
     {!eval_store_csr} call instead of a per-call allocation *)
  wl_best : float array;
  (* {!critical_endpoint}'s answer and the revision it was scanned at
     (-1: none yet) *)
  mutable ce : (int * Edge.t) option;
  mutable ce_rev : int;
}

(* slot offset of an edge's (time, slope) pair within a node's block *)
let edge_off = function Edge.Rising -> 0 | Edge.Falling -> 2

let edge_bit = function Edge.Rising -> 0 | Edge.Falling -> 1
let unpack_from = function
  | -1 -> None
  | p -> Some (p / 2, if p land 1 = 0 then Edge.Rising else Edge.Falling)

let grow t =
  let bound = Netlist.id_bound t.netlist in
  if bound > t.cap then begin
    let cap = max bound (2 * t.cap) in
    let grow_i a = Array.append a (Array.make (cap - t.cap) (-1)) in
    t.arr <- Array.append t.arr (Array.make (4 * (cap - t.cap)) Float.nan);
    t.rise_from <- grow_i t.rise_from;
    t.fall_from <- grow_i t.fall_from;
    let mark = Bytes.make cap '\000' in
    Bytes.blit t.wl_mark 0 mark 0 t.cap;
    t.wl_mark <- mark;
    t.cap <- cap
  end

let clear_node t id =
  let b = 4 * id in
  t.arr.(b) <- Float.nan;
  t.arr.(b + 1) <- Float.nan;
  t.arr.(b + 2) <- Float.nan;
  t.arr.(b + 3) <- Float.nan;
  t.rise_from.(id) <- -1;
  t.fall_from.(id) <- -1

(* --- CSR level sweep -------------------------------------------------- *)

(* Re-evaluate the order slice [lo, hi) straight off the CSR arrays:
   per-kind coefficients come from the prebuilt tables, loads and sizes
   from the snapshot, and the whole loop touches only unboxed arrays —
   no allocation per node (the running best lives in a one-slot float
   array because a float ref would box on every update).  Arithmetic is
   grouped exactly as {!Model.stage_delay} groups it and fan-ins are
   visited in the same (edge, pin) order with the same keep-first tie
   break, so results are bit-identical to a per-node
   {!Model.stage_delay} evaluation (the test suites' record-based
   oracle).

   Nodes only read arrivals of strictly lower levels, so any partition
   of one level into slices stores the same values.

   The loop body uses [Array.unsafe_get]/[unsafe_set]: every index is
   in bounds by the CSR construction invariants — [node_of.(i)] for
   [i] in [lo, hi) is a live id < [id_bound]; the per-id arrays
   ([kind_code], [cin], [load], [rise_from], [fall_from]) have length
   [id_bound] and [fanin_off] has [id_bound + 1]; [arr] has
   [4 * id_bound] slots; every [fanin] entry is itself a live id; and
   [code] indexes the per-kind tables only after [tb.have.(code)]
   (a safe access) has confirmed it. *)
let sweep_range t (c : Netlist.Csr.t) lo hi =
  let tb = t.tables in
  let node_of = Netlist.Csr.node_of c in
  let kind_code = Netlist.Csr.kind_code c in
  let vt_code = Netlist.Csr.vt_code c in
  let cin = Netlist.Csr.cin c in
  let load = Netlist.Csr.load c in
  let fanin_off = Netlist.Csr.fanin_off c in
  let fanin = Netlist.Csr.fanin c in
  let arr = t.arr in
  let rise_f = t.rise_from and fall_f = t.fall_from in
  let vtp_a = tb.vtp_red and vtn_a = tb.vtn_red in
  let best = Array.make 2 Float.nan in
  let best_from = ref (-1) in
  let best_from2 = ref (-1) in
  for i = lo to hi - 1 do
    let id = Array.unsafe_get node_of i in
    let code = Array.unsafe_get kind_code id in
    if code = -1 then begin
      let b = 4 * id in
      Array.unsafe_set arr b t.input_arrival;
      Array.unsafe_set arr (b + 1) t.input_slope;
      Array.unsafe_set arr (b + 2) t.input_arrival;
      Array.unsafe_set arr (b + 3) t.input_slope;
      Array.unsafe_set rise_f id (-1);
      Array.unsafe_set fall_f id (-1)
    end
    else if code = -2 || not tb.have.(code) then raise Not_found
    else begin
      let cin_v = Array.unsafe_get cin id in
      let cload =
        Array.unsafe_get load id +. (Array.unsafe_get tb.par code *. cin_v)
      in
      let f_lo = Array.unsafe_get fanin_off id
      and f_hi = Array.unsafe_get fanin_off (id + 1) in
      let kl = Array.unsafe_get tb.klass code in
      (* the node's Vt class picks its slope products and thresholds;
         the codes are 0..2 by construction, so the indexing is safe *)
      let vc = Array.unsafe_get vt_code id in
      let sx = (3 * code) + vc in
      let vtp = Array.unsafe_get vtp_a vc and vtn = Array.unsafe_get vtn_a vc in
      (* [x /. 2.] is written [x *. 0.5] throughout: exact for every
         IEEE double, so results stay bit-identical to the reference *)
      if kl <> 1 then begin
        (* single causing input edge per output edge: one fused pass
           over the pins evaluates both output edges, reading each
           fan-in's arrival slots once.  Per output edge the candidate
           order is still pin order, so the keep-first tie break (and
           hence every stored bit) matches the two-pass loop. *)
        let tau_r = Array.unsafe_get tb.stau_lh sx *. cload /. cin_v in
        let tau_f = Array.unsafe_get tb.stau_hl sx *. cload /. cin_v in
        let cm_r = Array.unsafe_get tb.cm_lh code *. cin_v in
        let cm_f = Array.unsafe_get tb.cm_hl code *. cin_v in
        let gterm_r = (1. +. (2. *. cm_r /. (cm_r +. cload))) *. tau_r *. 0.5 in
        let gterm_f = (1. +. (2. *. cm_f /. (cm_f +. cload))) *. tau_f *. 0.5 in
        (* rising output caused by a falling input for inverting cells,
           by a rising input for buffers (and vice versa); [or_]/[of_]
           are the slot offsets of those causing edges *)
        let or_ = if kl = 2 then 0 else 2 in
        let of_ = 2 - or_ in
        let ei_r = or_ lsr 1 in
        let ei_f = 1 - ei_r in
        Array.unsafe_set best 0 Float.nan;
        Array.unsafe_set best 1 Float.nan;
        best_from := -1;
        best_from2 := -1;
        for p = f_lo to f_hi - 1 do
          let f = Array.unsafe_get fanin p in
          let b = 4 * f in
          let str = Array.unsafe_get arr (b + or_) in
          if not (Float.is_nan str) then begin
            let time =
              str
              +. ((vtp *. Array.unsafe_get arr (b + or_ + 1) *. 0.5)
                 +. gterm_r)
            in
            if not (Array.unsafe_get best 0 >= time) then begin
              Array.unsafe_set best 0 time;
              best_from := (2 * f) + ei_r
            end
          end;
          let stf = Array.unsafe_get arr (b + of_) in
          if not (Float.is_nan stf) then begin
            let time =
              stf
              +. ((vtn *. Array.unsafe_get arr (b + of_ + 1) *. 0.5)
                 +. gterm_f)
            in
            if not (Array.unsafe_get best 1 >= time) then begin
              Array.unsafe_set best 1 time;
              best_from2 := (2 * f) + ei_f
            end
          end
        done;
        let b = 4 * id in
        if !best_from >= 0 then begin
          Array.unsafe_set arr b (Array.unsafe_get best 0);
          Array.unsafe_set arr (b + 1) tau_r;
          Array.unsafe_set rise_f id !best_from
        end
        else begin
          Array.unsafe_set arr b Float.nan;
          Array.unsafe_set arr (b + 1) Float.nan;
          Array.unsafe_set rise_f id (-1)
        end;
        if !best_from2 >= 0 then begin
          Array.unsafe_set arr (b + 2) (Array.unsafe_get best 1);
          Array.unsafe_set arr (b + 3) tau_f;
          Array.unsafe_set fall_f id !best_from2
        end
        else begin
          Array.unsafe_set arr (b + 2) Float.nan;
          Array.unsafe_set arr (b + 3) Float.nan;
          Array.unsafe_set fall_f id (-1)
        end
      end
      else
        for eo = 0 to 1 do
          (* eo: 0 = rising output, 1 = falling output (= edge_bit) *)
          let stau = if eo = 0 then tb.stau_lh.(sx) else tb.stau_hl.(sx) in
          let cmr = if eo = 0 then tb.cm_lh.(code) else tb.cm_hl.(code) in
          let v_t = if eo = 0 then vtp else vtn in
          let tau_out = stau *. cload /. cin_v in
          let cm = cmr *. cin_v in
          let gate_term = (1. +. (2. *. cm /. (cm +. cload))) *. tau_out *. 0.5 in
          best.(0) <- Float.nan;
          best_from := -1;
          (* xor-class: both causing input edges, rising first *)
          for ei = 0 to 1 do
            let off = 2 * ei in
            for p = f_lo to f_hi - 1 do
              let f = Array.unsafe_get fanin p in
              let src = (4 * f) + off in
              let st = Array.unsafe_get arr src in
              if not (Float.is_nan st) then begin
                let d = (v_t *. Array.unsafe_get arr (src + 1) *. 0.5) +. gate_term in
                let time = st +. d in
                if not (Array.unsafe_get best 0 >= time) then begin
                  Array.unsafe_set best 0 time;
                  best_from := (2 * f) + ei
                end
              end
            done
          done;
          let b = (4 * id) + (2 * eo) in
          let fr = if eo = 0 then rise_f else fall_f in
          if !best_from >= 0 then begin
            arr.(b) <- best.(0);
            arr.(b + 1) <- tau_out;
            fr.(id) <- !best_from
          end
          else begin
            arr.(b) <- Float.nan;
            arr.(b + 1) <- Float.nan;
            fr.(id) <- -1
          end
        done
    end
  done

(* propagation from [from_level] to the sinks: the levels from there on
   are one contiguous slice of the CSR order *)
let sweep_levels t (c : Netlist.Csr.t) ~from_level =
  let level_off = Netlist.Csr.level_off c in
  sweep_range t c level_off.(from_level) level_off.(Array.length level_off - 1)

(* Single-node re-evaluation straight off the CSR arrays — the worklist
   counterpart of {!sweep_range}: the same hoisted coefficients, fan-in
   visit order and keep-first tie break (so stored bits match the full
   sweep), with a NaN-aware change test folded into the store.  Returns
   true when either edge's stored (time, slope) moved.  The event-driven
   {!update} runs this per popped node; keeping the per-node cost at
   sweep constants (shared scratch block, no boxed floats, no record or
   list traffic) is what lets the incremental path beat the flat sweep
   on small cones instead of losing its asymptotic win to per-node
   overhead. *)

(* store one edge; true when its time or slope moved (the only
   components downstream consumers read), or when it lost or gained an
   arrival.  Top-level (not a closure over the eval) so the hot drain
   allocates nothing per node. *)
let store_slot arr (fr : int array) id b time tau from =
  if from >= 0 then begin
    let old_t = Array.unsafe_get arr b in
    let old_s = Array.unsafe_get arr (b + 1) in
    Array.unsafe_set arr b time;
    Array.unsafe_set arr (b + 1) tau;
    Array.unsafe_set fr id from;
    Float.is_nan old_t || old_t <> time || old_s <> tau
  end
  else begin
    let was = not (Float.is_nan (Array.unsafe_get arr b)) in
    Array.unsafe_set arr b Float.nan;
    Array.unsafe_set arr (b + 1) Float.nan;
    Array.unsafe_set fr id (-1);
    was
  end

let eval_store_csr t (c : Netlist.Csr.t) id =
  let tb = t.tables in
  let arr = t.arr in
  let code = (Netlist.Csr.kind_code c).(id) in
  if code = -1 then begin
    let b = 4 * id in
    let slot b0 =
      Float.is_nan arr.(b0)
      || arr.(b0) <> t.input_arrival
      || arr.(b0 + 1) <> t.input_slope
    in
    let moved = slot b || slot (b + 2) in
    arr.(b) <- t.input_arrival;
    arr.(b + 1) <- t.input_slope;
    arr.(b + 2) <- t.input_arrival;
    arr.(b + 3) <- t.input_slope;
    t.rise_from.(id) <- -1;
    t.fall_from.(id) <- -1;
    moved
  end
  else if code = -2 || not tb.have.(code) then raise Not_found
  else begin
    let cin = Netlist.Csr.cin c and load = Netlist.Csr.load c in
    let fanin_off = Netlist.Csr.fanin_off c and fanin = Netlist.Csr.fanin c in
    let vc = Array.unsafe_get (Netlist.Csr.vt_code c) id in
    let sx = (3 * code) + vc in
    let vtp = Array.unsafe_get tb.vtp_red vc
    and vtn = Array.unsafe_get tb.vtn_red vc in
    let cin_v = Array.unsafe_get cin id in
    let cload =
      Array.unsafe_get load id +. (Array.unsafe_get tb.par code *. cin_v)
    in
    let f_lo = Array.unsafe_get fanin_off id
    and f_hi = Array.unsafe_get fanin_off (id + 1) in
    let kl = Array.unsafe_get tb.klass code in
    let moved = ref false in
    let best = t.wl_best in
    let best_from = ref (-1) in
    let best_from2 = ref (-1) in
    if kl <> 1 then begin
      let tau_r = Array.unsafe_get tb.stau_lh sx *. cload /. cin_v in
      let tau_f = Array.unsafe_get tb.stau_hl sx *. cload /. cin_v in
      let cm_r = Array.unsafe_get tb.cm_lh code *. cin_v in
      let cm_f = Array.unsafe_get tb.cm_hl code *. cin_v in
      let gterm_r = (1. +. (2. *. cm_r /. (cm_r +. cload))) *. tau_r *. 0.5 in
      let gterm_f = (1. +. (2. *. cm_f /. (cm_f +. cload))) *. tau_f *. 0.5 in
      let or_ = if kl = 2 then 0 else 2 in
      let of_ = 2 - or_ in
      let ei_r = or_ lsr 1 in
      let ei_f = 1 - ei_r in
      Array.unsafe_set best 0 Float.nan;
      Array.unsafe_set best 1 Float.nan;
      for p = f_lo to f_hi - 1 do
        let f = Array.unsafe_get fanin p in
        let b = 4 * f in
        let str = Array.unsafe_get arr (b + or_) in
        if not (Float.is_nan str) then begin
          let time =
            str +. ((vtp *. Array.unsafe_get arr (b + or_ + 1) *. 0.5) +. gterm_r)
          in
          if not (Array.unsafe_get best 0 >= time) then begin
            Array.unsafe_set best 0 time;
            best_from := (2 * f) + ei_r
          end
        end;
        let stf = Array.unsafe_get arr (b + of_) in
        if not (Float.is_nan stf) then begin
          let time =
            stf +. ((vtn *. Array.unsafe_get arr (b + of_ + 1) *. 0.5) +. gterm_f)
          in
          if not (Array.unsafe_get best 1 >= time) then begin
            Array.unsafe_set best 1 time;
            best_from2 := (2 * f) + ei_f
          end
        end
      done;
      let b = 4 * id in
      let r = store_slot arr t.rise_from id b best.(0) tau_r !best_from in
      let f = store_slot arr t.fall_from id (b + 2) best.(1) tau_f !best_from2 in
      moved := r || f
    end
    else
      for eo = 0 to 1 do
        let stau = if eo = 0 then tb.stau_lh.(sx) else tb.stau_hl.(sx) in
        let cmr = if eo = 0 then tb.cm_lh.(code) else tb.cm_hl.(code) in
        let v_t = if eo = 0 then vtp else vtn in
        let tau_out = stau *. cload /. cin_v in
        let cm = cmr *. cin_v in
        let gate_term = (1. +. (2. *. cm /. (cm +. cload))) *. tau_out *. 0.5 in
        best.(0) <- Float.nan;
        best_from := -1;
        for ei = 0 to 1 do
          let off = 2 * ei in
          for p = f_lo to f_hi - 1 do
            let f = Array.unsafe_get fanin p in
            let src = (4 * f) + off in
            let st = Array.unsafe_get arr src in
            if not (Float.is_nan st) then begin
              let d =
                (v_t *. Array.unsafe_get arr (src + 1) *. 0.5) +. gate_term
              in
              let time = st +. d in
              if not (Array.unsafe_get best 0 >= time) then begin
                Array.unsafe_set best 0 time;
                best_from := (2 * f) + ei
              end
            end
          done
        done;
        let fr = if eo = 0 then t.rise_from else t.fall_from in
        if store_slot arr fr id ((4 * id) + (2 * eo)) best.(0) tau_out !best_from
        then moved := true
      done;
    !moved
  end

(* Fraction of the levelized order past which the event-driven worklist
   is abandoned for a straight-line sweep, and the maximum average level
   width at which the level-population cone bound is trusted.  On a deep
   spine (width ~1) a mid-chain edit reaches half the design: paying
   bucket + mark overhead per node there is slower than a plain pass over
   the suffix of the topological order.  On wide circuits the bound
   wildly overestimates the true cone, so the worklist stays.  The
   dense-level factor governs the same trade within one worklist level:
   once the queued fraction of a level passes 1/8, re-evaluating the
   whole level linearly off the CSR order beats scattered pops (a
   no-change re-evaluation stores the same bits and wakes nobody, so
   the result is identical either way). *)
let cone_fallback_fraction = 0.6
let narrow_width_limit = 8
let dense_level_factor = 8

let update t =
  let nl = t.netlist in
  let rev = Netlist.revision nl in
  if rev <> t.cursor then begin
    let dirty = Netlist.dirty_since nl t.cursor in
    t.cursor <- rev;
    grow t;
    (* clear deleted entries up front; the survivors seed the wavefront *)
    let lmin = ref max_int in
    let live_dirty =
      List.filter
        (fun id ->
          if Netlist.node_exists nl id then begin
            let l = Netlist.level nl id in
            if l < !lmin then lmin := l;
            true
          end
          else begin
            clear_node t id;
            false
          end)
        dirty
    in
    if live_dirty <> [] then begin
      let live = Netlist.live_count nl in
      let cone_bound = Netlist.count_level_ge nl !lmin in
      let narrow = (Netlist.depth nl + 1) * narrow_width_limit >= live in
      if
        narrow
        && float_of_int cone_bound
           >= cone_fallback_fraction *. float_of_int live
      then begin
        (* Deep-spine fallback: re-evaluate every node at level >= lmin
           straight off the levelized CSR order.  Same arithmetic, same
           order as a cold analyze restricted to the suffix, so arrivals
           stay bit-identical; nodes below lmin cannot have changed
           (dirt only propagates downstream, i.e. to higher levels). *)
        sweep_levels t (Netlist.csr nl) ~from_level:!lmin
      end
      else begin
        (* Event-driven drain in level order: a per-level bucket queue
           (arrivals only flow to strictly deeper levels, so processing
           level [l] can only wake levels above it) and the persistent
           byte-mark dedup.  O(1) push/pop with no boxed (key, value)
           pairs and no hashing; evaluation within one level is
           order-independent (nodes read only lower levels), so bucket
           LIFO order stores the same bits as any other order. *)
        let c = Netlist.csr nl in
        let depth = Netlist.Csr.depth c in
        let buckets = Array.make (depth + 1) [] in
        let mark = t.wl_mark in
        let enqueue id =
          if Bytes.get mark id = '\000' && Netlist.node_exists nl id then begin
            Bytes.set mark id '\001';
            let l = Netlist.level nl id in
            buckets.(l) <- id :: buckets.(l)
          end
        in
        List.iter enqueue live_dirty;
        let fo_off = Netlist.Csr.fanout_off c in
        let fo = Netlist.Csr.fanout c in
        let node_of = Netlist.Csr.node_of c in
        let level_off = Netlist.Csr.level_off c in
        let process id =
          if eval_store_csr t c id then
            for p = fo_off.(id) to fo_off.(id + 1) - 1 do
              enqueue fo.(p)
            done
        in
        for l = !lmin to depth do
          match buckets.(l) with
          | [] -> ()
          | bucket ->
            let queued = List.length bucket in
            let lo = level_off.(l) and hi = level_off.(l + 1) in
            if queued * dense_level_factor >= hi - lo then begin
              (* dense level: one linear pass over the level's CSR
                 slice beats scattered evaluation — un-queued nodes
                 have unchanged fan-ins (any change would have queued
                 them), so their re-evaluation stores the same bits
                 and wakes nobody *)
              List.iter (fun id -> Bytes.set mark id '\000') bucket;
              for i = lo to hi - 1 do
                process node_of.(i)
              done
            end
            else
              List.iter
                (fun id ->
                  Bytes.set mark id '\000';
                  process id)
                bucket
        done
      end
    end
  end

let make ?input_slope ?(input_arrival = 0.) ~lib netlist =
  let tech = Netlist.tech netlist in
  let input_slope =
    Option.value input_slope ~default:(2. *. tech.Pops_process.Tech.tau)
  in
  let bound = Netlist.id_bound netlist in
  let cap = max 64 bound in
  (* both callers immediately run a full pass that writes all four
     slots of every live node before anything reads them, so when ids
     are dense (no dead ids whose slots must read as NaN for the
     {!arrival} Not_found contract, no padding beyond [bound]) the
     O(cap) NaN prefill is redundant *)
  let arr =
    if cap = bound && Netlist.live_count netlist = bound then
      Array.create_float (4 * cap)
    else Array.make (4 * cap) Float.nan
  in
  {
    netlist;
    lib;
    tables = build_tables ~lib;
    input_slope;
    input_arrival;
    cap;
    arr;
    rise_from = Array.make cap (-1);
    fall_from = Array.make cap (-1);
    cursor = Netlist.revision netlist;
    wl_mark = Bytes.make cap '\000';
    wl_best = [| Float.nan; Float.nan |];
    ce = None;
    ce_rev = -1;
  }

let analyze ?input_slope ?input_arrival ~lib netlist =
  let t = make ?input_slope ?input_arrival ~lib netlist in
  sweep_levels t (Netlist.csr netlist) ~from_level:0;
  t

let arrival t id edge =
  update t;
  if id < 0 || id >= t.cap then raise Not_found;
  let froms =
    match edge with Edge.Rising -> t.rise_from | Edge.Falling -> t.fall_from
  in
  let b = (4 * id) + edge_off edge in
  if Float.is_nan t.arr.(b) then raise Not_found;
  { time = t.arr.(b); slope = t.arr.(b + 1); from_ = unpack_from froms.(id) }

let node_worst t id =
  update t;
  if id < 0 || id >= t.cap then raise Not_found;
  let r = t.arr.(4 * id) and f = t.arr.((4 * id) + 2) in
  match (Float.is_nan r, Float.is_nan f) with
  | false, false ->
    if r >= f then (Edge.Rising, arrival t id Edge.Rising)
    else (Edge.Falling, arrival t id Edge.Falling)
  | false, true -> (Edge.Rising, arrival t id Edge.Rising)
  | true, false -> (Edge.Falling, arrival t id Edge.Falling)
  | true, true -> raise Not_found

(* The first output, in designation order, whose worst arrival is the
   maximum: [node_worst]'s edge pick (rising on ties and when falling is
   undefined) read straight from the slots, in one loop over
   {!Netlist.output_ids} that allocates nothing per output.  Unreachable
   endpoints have NaN arrivals and drop out like [node_worst]'s
   Not_found.  The answer is kept until the revision moves: the flow
   asks twice per round, and [Vt_assign] after every rejected swap. *)
let critical_endpoint t =
  update t;
  if t.ce_rev <> t.cursor then begin
    let outs = Netlist.output_ids t.netlist in
    let arr = t.arr in
    let best = ref (-1) and time = ref Float.nan in
    for r = 0 to Netlist.output_count t.netlist - 1 do
      let id = outs.(r) in
      if id >= 0 && id < t.cap then begin
        let a = arr.(4 * id) and f = arr.((4 * id) + 2) in
        (* a strictly later arrival on either edge takes over; the
           edge is picked only then, off the hot comparison *)
        if
          a > !time || f > !time
          || (!best < 0 && not (Float.is_nan a && Float.is_nan f))
        then begin
          best := id;
          time := if Float.is_nan f || a >= f then a else f
        end
      end
    done;
    t.ce <-
      (if !best < 0 then None
       else Some (!best, if arr.(4 * !best) = !time then Edge.Rising else Edge.Falling));
    t.ce_rev <- t.cursor
  end;
  t.ce

(* the critical endpoint's arrival; 0 when no output has one *)
let critical_delay t =
  match critical_endpoint t with
  | Some (id, edge) -> t.arr.((4 * id) + edge_off edge)
  | None -> 0.

let backtrack t id edge =
  let rec go id edge acc =
    let acc = id :: acc in
    match (arrival t id edge).from_ with
    | None -> acc
    | Some (src, src_edge) -> go src src_edge acc
  in
  go id edge []

let critical_path t =
  match critical_endpoint t with
  | Some (id, edge) -> backtrack t id edge
  | None -> []

let path_through t id =
  let edge, _ = node_worst t id in
  backtrack t id edge

(* node_worst's edge pick without the arrival record: rising wins ties
   and single-sided cases, exactly like the record walk *)
let worst_edge_bit t id =
  if id < 0 || id >= t.cap then raise Not_found;
  let r = t.arr.(4 * id) and f = t.arr.((4 * id) + 2) in
  match (Float.is_nan r, Float.is_nan f) with
  | false, false -> if r >= f then 0 else 1
  | false, true -> 0
  | true, false -> 1
  | true, true -> raise Not_found

(* Provenance-chain walks at pointer cost: {!path_through} allocates an
   arrival record per step, which is fine for materializing one path
   but not for a selection loop that probes thousands of candidate
   endpoints per round and discards most of them.  Both walk the same
   stored provenance as {!backtrack}, so (length, window) agree with
   {!path_through} node for node. *)

let path_length t id =
  update t;
  let rec go id eb n =
    let from = if eb = 0 then t.rise_from.(id) else t.fall_from.(id) in
    if from < 0 then n + 1 else go (from / 2) (from land 1) (n + 1)
  in
  go id (worst_edge_bit t id) 0

let path_window t id ~skip ~len =
  update t;
  let rec go id eb i acc =
    let acc = if i >= skip && i < skip + len then id :: acc else acc in
    let from = if eb = 0 then t.rise_from.(id) else t.fall_from.(id) in
    if from < 0 || i + 1 >= skip + len then acc
    else go (from / 2) (from land 1) (i + 1) acc
  in
  go id (worst_edge_bit t id) 0 []

let window_marked t id ~skip ~len stamp mark =
  update t;
  let rec go id eb i =
    (i >= skip && i < skip + len && stamp.(id) = mark)
    ||
    let from = if eb = 0 then t.rise_from.(id) else t.fall_from.(id) in
    from >= 0 && i + 1 < skip + len && go (from / 2) (from land 1) (i + 1)
  in
  go id (worst_edge_bit t id) 0

let slack t ~tc id =
  let _, a = node_worst t id in
  tc -. a.time

(* --- required times and slacks (lazy backward sweep) ------------------ *)

(* Required times live in a dense float array with two slots per node id
   — [2id] rising, [2id+1] falling; nan = undefined (no arrival through
   that edge, or no constrained path downstream).  The recurrence is the
   exact mirror of the forward one: a node's required time per edge is
   [tc] if it is a primary output, minimized with, for every consumer
   and every consumer output edge its input edge can cause,
   [required(consumer, out_edge) - stage_delay(consumer, out_edge)]
   where the stage delay uses {e this} node's stored slope as [tau_in].
   [slk.(id)] caches the worst (most negative) [required - arrival]
   over both edges, nan when neither edge has both defined.

   The arrays are filled lazily, as a suffix of the reverse levelized
   CSR order: positions [mark] and up hold the values of revision
   [rev], the rest is garbage.  A query at a node with fan-out lowers
   [mark] to the node's position, a query at a sink reads its arrivals
   (its required time is [tc] or nothing), and a revision change resets
   [mark] without touching the arrays.  The flow reads slacks at its
   endpoints, which on wide designs are nearly all sinks, and at ≤3
   window tails per round, so most rounds sweep nothing. *)
type slacks = {
  s_tm : t;
  s_tc : float;
  mutable req : float array;  (* two required slots per id *)
  mutable slk : float array;  (* one worst-slack slot per id *)
  mutable rev : int;  (* netlist revision [mark] refers to *)
  mutable mark : int;  (* CSR positions >= mark are current; max_int: none *)
}

let eval_slack s id =
  let tm = s.s_tm in
  let worst = ref Float.nan in
  for eo = 0 to 1 do
    let a = tm.arr.((4 * id) + (2 * eo)) in
    let r = s.req.((2 * id) + eo) in
    if not (Float.is_nan a || Float.is_nan r) then begin
      let sl = r -. a in
      if Float.is_nan !worst || sl < !worst then worst := sl
    end
  done;
  s.slk.(id) <- !worst

(* [eval_slack] at a sink: required time [tc] on each edge with an
   arrival if it is an output, none otherwise.  The same subtractions
   and the same min, so the bits match a swept sink's. *)
let sink_slack s id =
  if not (Netlist.is_output s.s_tm.netlist id) then Float.nan
  else begin
    let arr = s.s_tm.arr in
    let w = s.s_tc -. arr.(4 * id) and wf = s.s_tc -. arr.((4 * id) + 2) in
    if Float.is_nan wf then w else if Float.is_nan w || wf < w then wf else w
  end

(* Bring [s] to the netlist's current revision: arrivals first, then a
   moved revision invalidates every stored required time by resetting
   the mark.  Every query starts here. *)
let slacks_update s =
  update s.s_tm;
  let rev = Netlist.revision s.s_tm.netlist in
  if rev <> s.rev then begin
    s.rev <- rev;
    s.mark <- max_int
  end

(* Lower the mark to CSR position [stop]: the backward recurrence over
   positions [stop, mark) in reverse order, so every consumer's required
   time (always at a higher position) is stored before its producers
   read it.  Per node this recomputes both required slots from the
   consumers straight off the CSR arrays — the backward counterpart of
   {!sweep_range}, with the same coefficient tables and float groupings
   (so [x /. 2.] is [x *. 0.5] etc.) — and writes both, NaN included, so
   nothing from an earlier revision survives in the suffix.  Min is
   commutative, so any evaluation order over the same consumer set
   yields the same bits as a record-based sweep over the reverse
   topological order.  The
   running min lives in a one-slot array: a float ref would box on every
   update. *)
let lower s (c : Netlist.Csr.t) stop =
  let tm = s.s_tm in
  let nl = tm.netlist in
  let bound = Netlist.id_bound nl in
  (* the arrays only grow after new ids, hence after a revision change
     reset the mark: nothing in them is current, nothing to copy *)
  if bound > Array.length s.slk then begin
    let cap = max 64 (max bound (2 * Array.length s.slk)) in
    s.req <- Array.make (2 * cap) Float.nan;
    s.slk <- Array.make cap Float.nan
  end;
  let tb = tm.tables in
  let arr = tm.arr in
  let req = s.req in
  let node_of = Netlist.Csr.node_of c in
  let kind_code = Netlist.Csr.kind_code c in
  let vt_code = Netlist.Csr.vt_code c in
  let cin = Netlist.Csr.cin c in
  let load = Netlist.Csr.load c in
  let fo_off = Netlist.Csr.fanout_off c in
  let fo = Netlist.Csr.fanout c in
  let acc = [| Float.nan |] in
  for i = min s.mark (Netlist.Csr.length c) - 1 downto stop do
    let id = node_of.(i) in
    let is_out = Netlist.is_output nl id in
    let f_lo = fo_off.(id) and f_hi = fo_off.(id + 1) in
    for eo = 0 to 1 do
      let a = arr.((4 * id) + (2 * eo)) in
      if Float.is_nan a then req.((2 * id) + eo) <- Float.nan
      else begin
        let slope = arr.((4 * id) + (2 * eo) + 1) in
        acc.(0) <- (if is_out then s.s_tc else Float.nan);
        for p = f_lo to f_hi - 1 do
          let cid = Array.unsafe_get fo p in
          let code = Array.unsafe_get kind_code cid in
          (* a primary input cannot consume a net; [-1] is only
             defensive, mirroring the record walk's kind match *)
          if code = -1 then ()
          else if code = -2 || not tb.have.(code) then raise Not_found
          else begin
            let cin_v = Array.unsafe_get cin cid in
            let cload =
              Array.unsafe_get load cid
              +. (Array.unsafe_get tb.par code *. cin_v)
            in
            (* which consumer output edges our edge can cause (both
               for an XOR-class consumer, the same edge through a
               buffer, the other through an inverting gate); per edge the
               term is the consumer's required time minus the stage
               delay through it at our slope *)
            let kl = Array.unsafe_get tb.klass code in
            (* the stage swept backward is the consumer's, so its Vt
               class picks the coefficients *)
            let vc = Array.unsafe_get vt_code cid in
            let sx = (3 * code) + vc in
            let ob_lo = if kl = 1 then 0 else if kl = 2 then eo else 1 - eo in
            let ob_hi = if kl = 1 then 1 else ob_lo in
            for ob = ob_lo to ob_hi do
              let rc = Array.unsafe_get req ((2 * cid) + ob) in
              if not (Float.is_nan rc) then begin
                let stau =
                  if ob = 0 then Array.unsafe_get tb.stau_lh sx
                  else Array.unsafe_get tb.stau_hl sx
                in
                let cmr =
                  if ob = 0 then Array.unsafe_get tb.cm_lh code
                  else Array.unsafe_get tb.cm_hl code
                in
                let v_t =
                  if ob = 0 then Array.unsafe_get tb.vtp_red vc
                  else Array.unsafe_get tb.vtn_red vc
                in
                let tau_out = stau *. cload /. cin_v in
                let cm = cmr *. cin_v in
                let gterm =
                  (1. +. (2. *. cm /. (cm +. cload))) *. tau_out *. 0.5
                in
                let term = rc -. ((v_t *. slope *. 0.5) +. gterm) in
                if
                  not (Float.is_nan term)
                  && (Float.is_nan acc.(0) || term < acc.(0))
                then acc.(0) <- term
              end
            done
          end
        done;
        req.((2 * id) + eo) <- acc.(0)
      end
    done;
    eval_slack s id
  done;
  if stop < s.mark then s.mark <- stop

let slacks_make tm ~tc =
  let s = { s_tm = tm; s_tc = tc; req = [||]; slk = [||]; rev = -1; mark = max_int } in
  slacks_update s;
  s

let slacks_timing s = s.s_tm

(* The current CSR position of a live id in range, -1 otherwise (deleted
   ids have no position, so nothing an earlier revision stored for them
   can be read back). *)
let slack_pos s id =
  slacks_update s;
  let nl = s.s_tm.netlist in
  if id < 0 || id >= Netlist.id_bound nl then -1
  else (Netlist.Csr.pos (Netlist.csr nl)).(id)

let is_sink nl id =
  let off = Netlist.Csr.fanout_off (Netlist.csr nl) in
  off.(id + 1) = off.(id)

let required s id edge =
  let p = slack_pos s id in
  if p < 0 then raise Not_found;
  let nl = s.s_tm.netlist in
  let r =
    if p >= s.mark then s.req.((2 * id) + edge_bit edge)
    else if is_sink nl id then
      if
        Netlist.is_output nl id
        && not (Float.is_nan s.s_tm.arr.((4 * id) + edge_off edge))
      then s.s_tc
      else Float.nan
    else begin
      lower s (Netlist.csr nl) p;
      s.req.((2 * id) + edge_bit edge)
    end
  in
  if Float.is_nan r then raise Not_found;
  r

let node_slack s id =
  let p = slack_pos s id in
  if p < 0 then Float.nan
  else if p >= s.mark then s.slk.(id)
  else begin
    let nl = s.s_tm.netlist in
    if is_sink nl id then sink_slack s id
    else begin
      lower s (Netlist.csr nl) p;
      s.slk.(id)
    end
  end

(* lexicographic (slack, id) order; unique per endpoint (typed, so the
   comparisons are float and int ones, not the polymorphic compare) *)
let[@inline] slack_less (p1 : float) (i1 : int) p2 i2 =
  p1 < p2 || (p1 = p2 && i1 < i2)

(* One loop over {!Netlist.output_ids} keeping a sorted prefix of at
   most [limit] entries, where a candidate that cannot enter a full
   prefix costs one comparison.  A sink's slack is read off its arrival
   slots and an output that drives gates lowers the mark, so nothing is
   allocated per output.  (slack, id) is a total order, so the visiting
   order does not change the result; a net listed twice as an output is
   entered once. *)
let worst_endpoints s ~min_slack ~limit =
  slacks_update s;
  let nl = s.s_tm.netlist in
  let c = Netlist.csr nl in
  let pos = Netlist.Csr.pos c and fo_off = Netlist.Csr.fanout_off c in
  let outs = Netlist.output_ids nl in
  let arr = s.s_tm.arr and tc = s.s_tc in
  let ks = Array.make limit 0. and ki = Array.make limit 0 in
  let n = ref 0 in
  for r = 0 to Netlist.output_count nl - 1 do
    let id = outs.(r) in
    let sl =
      if fo_off.(id + 1) = fo_off.(id) then begin
        (* {!sink_slack}, with its rise/fall pick (a branch that
           mispredicts) run only when an edge already qualifies; a NaN
           edge never does *)
        let w = tc -. arr.(4 * id) and wf = tc -. arr.((4 * id) + 2) in
        if not (w < min_slack || wf < min_slack) then Float.nan
        else if Float.is_nan wf then w
        else if Float.is_nan w || wf < w then wf
        else w
      end
      else begin
        let p = pos.(id) in
        if p < 0 then Float.nan
        else begin
          if p < s.mark then lower s c p;
          s.slk.(id)
        end
      end
    in
    if sl < min_slack && (!n < limit || slack_less sl id ks.(limit - 1) ki.(limit - 1))
    then begin
      let m = min !n (limit - 1) in
      let p = ref m in
      while !p > 0 && slack_less sl id ks.(!p - 1) ki.(!p - 1) do
        decr p
      done;
      let p = !p in
      if p = 0 || ki.(p - 1) <> id then begin
        for j = m downto p + 1 do
          ks.(j) <- ks.(j - 1);
          ki.(j) <- ki.(j - 1)
        done;
        ks.(p) <- sl;
        ki.(p) <- id;
        if !n < limit then incr n
      end
    end
  done;
  List.init !n (fun i -> ki.(i))
