type stage = { cell : Pops_cell.Cell.t; branch : float }

(* Compiled per-path coefficient tables (structure-of-arrays).  Every
   value the delay/gradient/link-equation kernels need per (stage,
   polarity) is a path invariant: computed once at construction, read as
   unboxed floats ever after.  The [own] tables follow the path's
   current [input_edge]; the [flip] tables are the same stages under the
   opposite input polarity, so a polarity flip is an array swap, never a
   recomputation.  [v] is pre-zeroed when the slope term is disabled and
   [m] when coupling is disabled: the closed forms below then reduce to
   the term-less variants bit-exactly (0-valued numerators), which keeps
   the kernels branch-free. *)
type kernel = {
  n : int;
  s_own : float array;  (** symmetry factor, own polarity *)
  st_own : float array;  (** s * tau (the cell's tech) — slope product *)
  v_own : float array;  (** reduced threshold (0 when slope term off) *)
  m_own : float array;  (** coupling ratio (0 when coupling off) *)
  s_flip : float array;
  st_flip : float array;
  v_flip : float array;
  m_flip : float array;
  p : float array;  (** parasitic slope: cpar = p * cin *)
  kbranch : float array;  (** fixed off-path load per stage *)
  lo : float array;  (** minimum drive per stage *)
  hi : float array;  (** 4096 * minimum drive *)
  aw : float array;  (** area weight dA/dCin per stage *)
  flip_edges : Edge.t array;  (** stage edges under the flipped input *)
}

type t = {
  tech : Pops_process.Tech.t;
  stages : stage array;
  drive_cin : float;
  c_out : float;
  input_slope : float;
  input_edge : Edge.t;
  opts : Model.opts;
  edges : Edge.t array;
  kernel : kernel;
}

type coeffs = { s : float; v : float; m : float; p : float }

(* all-float mutable record: stays flat (unboxed fields), so writing the
   two results allocates nothing *)
type scratch = { mutable own : float; mutable flip : float }

let scratch () = { own = 0.; flip = 0. }

let compute_edges input_edge stages =
  let n = Array.length stages in
  let edges = Array.make n input_edge in
  let e = ref input_edge in
  for i = 0 to n - 1 do
    let inv = Pops_cell.Gate_kind.inverting stages.(i).cell.Pops_cell.Cell.kind in
    e := Edge.propagate ~inverting:inv !e;
    edges.(i) <- !e
  done;
  edges

let max_cin_factor = 4096.

let compile_kernel (opts : Model.opts) stages edges =
  let n = Array.length stages in
  let mk () = Array.make n 0. in
  let s_own = mk () and st_own = mk () and v_own = mk () and m_own = mk () in
  let s_flip = mk () and st_flip = mk () and v_flip = mk () and m_flip = mk () in
  let p = mk () and kbranch = mk () and lo = mk () and hi = mk () and aw = mk () in
  let flip_edges = Array.map Edge.flip edges in
  for i = 0 to n - 1 do
    let cell = stages.(i).cell in
    let fill edge s_a st_a v_a m_a =
      let s, v, m =
        match edge with
        | Edge.Falling ->
          ( cell.Pops_cell.Cell.s_hl,
            cell.Pops_cell.Cell.vtn_red,
            cell.Pops_cell.Cell.cm_ratio_hl )
        | Edge.Rising ->
          ( cell.Pops_cell.Cell.s_lh,
            cell.Pops_cell.Cell.vtp_red,
            cell.Pops_cell.Cell.cm_ratio_lh )
      in
      (* the Vt derating folds into the compiled slope products exactly as
         Model.transition_time groups it, so LVT (factor 1.0) stays
         bit-identical and higher-Vt kernels match the record oracle *)
      s_a.(i) <- s *. cell.Pops_cell.Cell.tau_factor;
      st_a.(i) <-
        s *. cell.Pops_cell.Cell.tech.Pops_process.Tech.tau
        *. cell.Pops_cell.Cell.tau_factor;
      v_a.(i) <- (if opts.Model.with_slope then v else 0.);
      m_a.(i) <- (if opts.Model.with_coupling then m else 0.)
    in
    fill edges.(i) s_own st_own v_own m_own;
    fill flip_edges.(i) s_flip st_flip v_flip m_flip;
    p.(i) <- cell.Pops_cell.Cell.par_ratio;
    kbranch.(i) <- stages.(i).branch;
    lo.(i) <- Pops_cell.Cell.min_cin cell;
    hi.(i) <- max_cin_factor *. lo.(i);
    aw.(i) <- Pops_cell.Cell.area cell ~cin:1.
  done;
  { n; s_own; st_own; v_own; m_own; s_flip; st_flip;
    v_flip; m_flip; p; kbranch; lo; hi; aw; flip_edges }

let make ?(opts = Model.default_opts) ?input_slope ?(input_edge = Edge.Rising)
    ?drive_cin ~tech ~c_out stages =
  if stages = [] then invalid_arg "Path.make: empty stage list";
  if c_out <= 0. then invalid_arg "Path.make: c_out must be positive";
  let stages = Array.of_list stages in
  Array.iter (fun st -> if st.branch < 0. then invalid_arg "Path.make: negative branch") stages;
  let drive_cin = Option.value drive_cin ~default:tech.Pops_process.Tech.cmin in
  let input_slope =
    Option.value input_slope ~default:(2. *. tech.Pops_process.Tech.tau)
  in
  let edges = compute_edges input_edge stages in
  {
    tech;
    stages;
    drive_cin;
    c_out;
    input_slope;
    input_edge;
    opts;
    edges;
    kernel = compile_kernel opts stages edges;
  }

let of_kinds ?opts ?input_slope ?input_edge ?drive_cin ?(branch = 0.) ~lib ~c_out
    kinds =
  let stage_of_kind kind = { cell = Pops_cell.Library.find lib kind; branch } in
  make ?opts ?input_slope ?input_edge ?drive_cin
    ~tech:(Pops_cell.Library.tech lib) ~c_out
    (List.map stage_of_kind kinds)

let length t = Array.length t.stages

let[@inline] clamp_at k i v = Float.min k.hi.(i) (Float.max k.lo.(i) v)

let grid ~round x =
  let m, e = Float.frexp x in
  Float.ldexp (round (m *. 4096.) /. 4096.) e

let min_sizing t =
  let x = Array.copy t.kernel.lo in
  x.(0) <- t.drive_cin;
  x

let clamp_into t x dst =
  let k = t.kernel in
  dst.(0) <- t.drive_cin;
  for i = 1 to k.n - 1 do
    dst.(i) <- clamp_at k i x.(i)
  done

let clamp_sizing t x =
  let y = Array.copy x in
  clamp_into t x y;
  y

let stage_coeffs t i =
  let cell = t.stages.(i).cell in
  let edge = t.edges.(i) in
  let s, v, m =
    match edge with
    | Edge.Falling ->
      ( cell.Pops_cell.Cell.s_hl,
        cell.Pops_cell.Cell.vtn_red,
        cell.Pops_cell.Cell.cm_ratio_hl )
    | Edge.Rising ->
      ( cell.Pops_cell.Cell.s_lh,
        cell.Pops_cell.Cell.vtp_red,
        cell.Pops_cell.Cell.cm_ratio_lh )
  in
  let m = if t.opts.Model.with_coupling then m else 0. in
  { s = s *. cell.Pops_cell.Cell.tau_factor; v; m; p = cell.Pops_cell.Cell.par_ratio }

(* Output load of stage [i] under sizing [x] (x.(0) already forced). *)
let load t x i =
  let n = Array.length t.stages in
  let next = if i = n - 1 then t.c_out else x.(i + 1) in
  Pops_cell.Cell.cpar t.stages.(i).cell ~cin:x.(i) +. t.stages.(i).branch +. next

let loads t x =
  let x = clamp_sizing t x in
  Array.init (Array.length t.stages) (load t x)

let delay_per_stage t x =
  let x = clamp_sizing t x in
  let n = Array.length t.stages in
  let out = Array.make n (0., 0.) in
  let tau_in = ref t.input_slope in
  for i = 0 to n - 1 do
    let cload = load t x i in
    let d, tau_out =
      Model.stage_delay ~opts:t.opts t.stages.(i).cell ~edge_out:t.edges.(i)
        ~tau_in:!tau_in ~cin:x.(i) ~cload
    in
    out.(i) <- (d, tau_out);
    tau_in := tau_out
  done;
  out

(* The fused delay loops below clamp on the fly — the clamped value of
   stage i+1 is computed once, used as stage i's load and carried
   forward as stage i+1's own drive — so no sizing copy is ever made,
   and all state lives in local float refs (unboxed by the compiler).
   The arithmetic replicates Model.stage_delay term by term:
     tau_out = (s * tau) * cload / cin          (st = s * tau is compiled)
     delay   = v * tau_in / 2                   (v = 0 when slope off)
             + (1 + 2 cm / (cm + cload)) * tau_out / 2   (cm = m * cin; m = 0
                                                          when coupling off) *)
let delay t x =
  let k = t.kernel in
  let n = k.n in
  let st = k.st_own and v = k.v_own and m = k.m_own in
  let total = ref 0. in
  let tau_in = ref t.input_slope in
  let ci = ref t.drive_cin in
  for i = 0 to n - 1 do
    let cnext = if i = n - 1 then t.c_out else clamp_at k (i + 1) x.(i + 1) in
    let cload = (k.p.(i) *. !ci) +. k.kbranch.(i) +. cnext in
    let tau_out = st.(i) *. cload /. !ci in
    let cm = m.(i) *. !ci in
    let factor = 1. +. (2. *. cm /. (cm +. cload)) in
    total := !total +. ((v.(i) *. !tau_in /. 2.) +. (factor *. tau_out /. 2.));
    tau_in := tau_out;
    ci := cnext
  done;
  !total

(* Both polarities in one pass: the loads (and therefore the clamping
   work) are polarity-independent, so the flipped-path delay costs only
   the per-stage closed form, not a second traversal setup.  Results
   land in the caller-owned scratch — zero allocation. *)
let delay_both t sc x =
  let k = t.kernel in
  let n = k.n in
  let total_o = ref 0. and total_f = ref 0. in
  let tau_o = ref t.input_slope and tau_f = ref t.input_slope in
  let ci = ref t.drive_cin in
  for i = 0 to n - 1 do
    let cnext = if i = n - 1 then t.c_out else clamp_at k (i + 1) x.(i + 1) in
    let cload = (k.p.(i) *. !ci) +. k.kbranch.(i) +. cnext in
    let tau_out_o = k.st_own.(i) *. cload /. !ci in
    let cm_o = k.m_own.(i) *. !ci in
    let factor_o = 1. +. (2. *. cm_o /. (cm_o +. cload)) in
    total_o :=
      !total_o +. ((k.v_own.(i) *. !tau_o /. 2.) +. (factor_o *. tau_out_o /. 2.));
    tau_o := tau_out_o;
    let tau_out_f = k.st_flip.(i) *. cload /. !ci in
    let cm_f = k.m_flip.(i) *. !ci in
    let factor_f = 1. +. (2. *. cm_f /. (cm_f +. cload)) in
    total_f :=
      !total_f +. ((k.v_flip.(i) *. !tau_f /. 2.) +. (factor_f *. tau_out_f /. 2.));
    tau_f := tau_out_f;
    ci := cnext
  done;
  sc.own <- !total_o;
  sc.flip <- !total_f

(* Same fused loop, returning only the max — keeps delay_worst (the
   optimizers' reporting criterion) allocation-free with no scratch. *)
let delay_worst t x =
  let k = t.kernel in
  let n = k.n in
  let total_o = ref 0. and total_f = ref 0. in
  let tau_o = ref t.input_slope and tau_f = ref t.input_slope in
  let ci = ref t.drive_cin in
  for i = 0 to n - 1 do
    let cnext = if i = n - 1 then t.c_out else clamp_at k (i + 1) x.(i + 1) in
    let cload = (k.p.(i) *. !ci) +. k.kbranch.(i) +. cnext in
    let tau_out_o = k.st_own.(i) *. cload /. !ci in
    let cm_o = k.m_own.(i) *. !ci in
    let factor_o = 1. +. (2. *. cm_o /. (cm_o +. cload)) in
    total_o :=
      !total_o +. ((k.v_own.(i) *. !tau_o /. 2.) +. (factor_o *. tau_out_o /. 2.));
    tau_o := tau_out_o;
    let tau_out_f = k.st_flip.(i) *. cload /. !ci in
    let cm_f = k.m_flip.(i) *. !ci in
    let factor_f = 1. +. (2. *. cm_f /. (cm_f +. cload)) in
    total_f :=
      !total_f +. ((k.v_flip.(i) *. !tau_f /. 2.) +. (factor_f *. tau_out_f /. 2.));
    tau_f := tau_out_f;
    ci := cnext
  done;
  if !total_o >= !total_f then !total_o else !total_f

let with_input_edge t edge =
  if Edge.equal edge t.input_edge then t
  else begin
    let k = t.kernel in
    {
      t with
      input_edge = edge;
      edges = k.flip_edges;
      kernel =
        {
          k with
          s_own = k.s_flip;
          st_own = k.st_flip;
          v_own = k.v_flip;
          m_own = k.m_flip;
          s_flip = k.s_own;
          st_flip = k.st_own;
          v_flip = k.v_own;
          m_flip = k.m_own;
          flip_edges = t.edges;
        };
    }
  end

let delay_avg t x =
  let sc = scratch () in
  delay_both t sc x;
  0.5 *. (sc.own +. sc.flip)

(* Exact gradient.  With cm_i = m_i * x_i and L_i = p_i x_i + B_i + next_i,
   the three places x_j appears are: the load of stage j-1 (as "next"),
   stage j's own output term (through 1/x_j, L_j and cm_j — the cm and L
   dependences combine into the compact -2 m^2 K/(cm+L)^2 term because
   2 cm L / ((cm+L) x) = 2 m L / (cm+L)), and stage j+1's slope term.
   Clamped sizes are carried in a three-entry window (x_{j-1}, x_j,
   x_{j+1}), so no sizing copy is made and nothing is allocated. *)
let gradient_into t x g =
  let k = t.kernel in
  let n = k.n in
  let tau = t.tech.Pops_process.Tech.tau in
  g.(0) <- 0.;
  if n > 1 then begin
    let xm1 = ref t.drive_cin in
    let xj = ref (clamp_at k 1 x.(1)) in
    for j = 1 to n - 1 do
      let xnext = if j = n - 1 then t.c_out else clamp_at k (j + 1) x.(j + 1) in
      let l_prev = (k.p.(j - 1) *. !xm1) +. k.kbranch.(j - 1) +. !xj in
      let cm_prev = k.m_own.(j - 1) *. !xm1 in
      let dp = cm_prev +. l_prev in
      let k1 = 1. +. (2. *. cm_prev *. cm_prev /. (dp *. dp)) in
      let upstream =
        k.s_own.(j - 1) *. tau /. (2. *. !xm1) *. (k1 +. k.v_own.(j))
      in
      let k_j = k.kbranch.(j) +. xnext in
      let l_j = (k.p.(j) *. !xj) +. k_j in
      let cm_j = k.m_own.(j) *. !xj in
      let dj = cm_j +. l_j in
      let v_next = if j + 1 < n then k.v_own.(j + 1) else 0. in
      let own =
        k.s_own.(j) *. tau *. k_j /. 2.
        *. (((1. +. v_next) /. (!xj *. !xj))
            +. (2. *. k.m_own.(j) *. k.m_own.(j) /. (dj *. dj)))
      in
      g.(j) <- upstream -. own;
      xm1 := !xj;
      xj := xnext
    done
  end

let gradient t x =
  let g = Array.make (Array.length t.stages) 0. in
  gradient_into t x g;
  g

(* The gradient and the tridiagonal Hessian of
     L = w_own T_own + w_flip T_flip - a sum_j aw_j x_j
   in one pass.  With g_j = U_j - O_j (the [upstream] and [own] terms
   above), U_j reads x_{j-1} and x_j, O_j reads x_j and x_{j+1}
   (through K_j = B_j + x_{j+1}, D_j = cm_j + L_j), so
     dg_j/dx_j     = -2 S_{j-1} m_{j-1} cm_prev / dp^3
                     + S_j K_j ((1 + v_{j+1}) / x_j^3 + 2 m_j^2 (m_j + p_j) / D_j^3)
     dg_j/dx_{j+1} = -(S_j / 2) ((1 + v_{j+1}) / x_j^2 + 2 m_j^2 (D_j - 2 K_j) / D_j^3)
   with S = s tau; the area term is linear and adds nothing.  Each
   polarity's gradient term is spelled exactly as in [gradient_into],
   and the weighted sum starts from -0. (the additive identity, sign of
   zero included), so [g] is bitwise the two-pass weighted gradient; the
   curvature reuses its quotients ((1 + v)/x^2 and 2 m^2/D^2).  Both
   polarities share the loads and the clamped window, as in
   [delay_both]; a polarity of weight 0 is skipped unless [diff] asks
   for the unweighted own-minus-flipped gradient. *)
let gradient_hessian_into ?diff t ~w_own ~w_flip ~a x g hd ho =
  let k = t.kernel in
  let n = k.n in
  let tau = t.tech.Pops_process.Tech.tau in
  let want_diff, dg = match diff with Some d -> (true, d) | None -> (false, g) in
  g.(0) <- 0.;
  hd.(0) <- 0.;
  ho.(0) <- 0.;
  if want_diff then dg.(0) <- 0.;
  if n > 1 then begin
    let xm1 = ref t.drive_cin in
    let xj = ref (clamp_at k 1 x.(1)) in
    for j = 1 to n - 1 do
      let xnext = if j = n - 1 then t.c_out else clamp_at k (j + 1) x.(j + 1) in
      let l_prev = (k.p.(j - 1) *. !xm1) +. k.kbranch.(j - 1) +. !xj in
      let k_j = k.kbranch.(j) +. xnext in
      let l_j = (k.p.(j) *. !xj) +. k_j in
      let inv_x = 1. /. !xj in
      let gj = ref (-0.) and hj = ref (-0.) and oj = ref (-0.) and dj = ref 0. in
      for pol = 0 to 1 do
        let w = if pol = 0 then w_own else w_flip in
        if w <> 0. || want_diff then begin
          let s = if pol = 0 then k.s_own else k.s_flip in
          let v = if pol = 0 then k.v_own else k.v_flip in
          let m = if pol = 0 then k.m_own else k.m_flip in
          let cm_prev = m.(j - 1) *. !xm1 in
          let dp = cm_prev +. l_prev in
          let k1 = 1. +. (2. *. cm_prev *. cm_prev /. (dp *. dp)) in
          let sp = s.(j - 1) *. tau in
          let upstream = sp /. (2. *. !xm1) *. (k1 +. v.(j)) in
          let d = (m.(j) *. !xj) +. l_j in
          let v_next = if j + 1 < n then v.(j + 1) else 0. in
          let sj = s.(j) *. tau in
          let ax = (1. +. v_next) /. (!xj *. !xj) in
          let bm = 2. *. m.(j) *. m.(j) /. (d *. d) in
          let r = bm /. d in
          let gp = upstream -. (sj *. k_j /. 2. *. (ax +. bm)) in
          if want_diff then dj := if pol = 0 then gp else !dj -. gp;
          if w <> 0. then begin
            gj := !gj +. (w *. gp);
            hj :=
              !hj
              +. w
                 *. ((sj *. k_j *. ((ax *. inv_x) +. (r *. (m.(j) +. k.p.(j)))))
                    -. (2. *. sp *. m.(j - 1) *. cm_prev /. (dp *. dp *. dp)));
            oj := !oj -. (w *. (sj /. 2. *. (ax +. bm -. (2. *. k_j *. r))))
          end
        end
      done;
      if want_diff then dg.(j) <- !dj;
      g.(j) <- (if a <> 0. then !gj -. (a *. k.aw.(j)) else !gj);
      hd.(j) <- !hj;
      ho.(j) <- (if j = n - 1 then 0. else !oj);
      xm1 := !xj;
      xj := xnext
    done
  end

let area_weight t i = t.kernel.aw.(i)

let area t x =
  let x = clamp_sizing t x in
  let total = ref 0. in
  Array.iteri
    (fun i st -> total := !total +. Pops_cell.Cell.area st.cell ~cin:x.(i))
    t.stages;
  !total

let sum_cin_ratio t x =
  let x = clamp_sizing t x in
  Array.fold_left ( +. ) 0. x /. t.tech.Pops_process.Tech.cmin

let rebuild t stages =
  let edges = compute_edges t.input_edge stages in
  { t with stages; edges; kernel = compile_kernel t.opts stages edges }

let with_stage_inserted t ~at st =
  let n = Array.length t.stages in
  if at < 0 || at >= n then invalid_arg "Path.with_stage_inserted";
  let stages =
    Array.init (n + 1) (fun i ->
        if i <= at then t.stages.(i) else if i = at + 1 then st else t.stages.(i - 1))
  in
  rebuild t stages

let with_stage_replaced t ~at st =
  let n = Array.length t.stages in
  if at < 0 || at >= n then invalid_arg "Path.with_stage_replaced";
  let stages = Array.mapi (fun i old -> if i = at then st else old) t.stages in
  rebuild t stages

let stage_kinds t =
  Array.to_list (Array.map (fun st -> st.cell.Pops_cell.Cell.kind) t.stages)

let pp ppf t =
  Format.fprintf ppf "@[<h>path[%d]:" (Array.length t.stages);
  Array.iter
    (fun st ->
      Format.fprintf ppf " %a%s" Pops_cell.Gate_kind.pp st.cell.Pops_cell.Cell.kind
        (if st.branch > 0. then Printf.sprintf "(+%.1ffF)" st.branch else ""))
    t.stages;
  Format.fprintf ppf " -> %.1ffF@]" t.c_out
