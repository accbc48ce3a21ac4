module Rng = Pops_util.Rng
module Tech = Pops_process.Tech
module Gate_kind = Pops_cell.Gate_kind
module Library = Pops_cell.Library
module Edge = Pops_delay.Edge
module Model = Pops_delay.Model
module Path = Pops_delay.Path
module Netlist = Pops_netlist.Netlist
module Transform = Pops_netlist.Transform
module Generator = Pops_netlist.Generator

let technologies =
  let corners = [| Tech.TT; Tech.SS; Tech.FF; Tech.SF; Tech.FS |] in
  Array.concat
    (List.map
       (fun t -> Array.map (Tech.at_corner t) corners)
       [ Tech.cmos025; Tech.cmos018 ])

let tech = Gen.pick ~print:(fun t -> t.Tech.name) technologies

let libraries : (string, Library.t) Hashtbl.t = Hashtbl.create 16

let library t =
  match Hashtbl.find_opt libraries t.Tech.name with
  | Some lib -> lib
  | None ->
    let lib = Library.make t in
    Hashtbl.add libraries t.Tech.name lib;
    lib

(* ------------------------------------------------------------------ *)
(* bounded paths                                                       *)
(* ------------------------------------------------------------------ *)

type path_spec = {
  p_tech : Tech.t;
  kinds : Gate_kind.t list;
  mults : float list;
  c_out : float;
  branch : float;
  input_slope : float;
  input_edge : Edge.t;
  opts : Model.opts;
}

let all_path_kinds =
  [|
    Gate_kind.Inv;
    Gate_kind.Buf;
    Gate_kind.Nand 2;
    Gate_kind.Nor 2;
    Gate_kind.Nand 3;
    Gate_kind.Nor 3;
    Gate_kind.Nand 4;
    Gate_kind.Nor 4;
    Gate_kind.Aoi21;
    Gate_kind.Oai21;
    Gate_kind.Aoi22;
    Gate_kind.Oai22;
    Gate_kind.Xor2;
    Gate_kind.Xnor2;
  |]

let opts_choices =
  [|
    Model.default_opts;
    { Model.with_slope = false; with_coupling = true };
    { Model.with_slope = true; with_coupling = false };
    { Model.with_slope = false; with_coupling = false };
  |]

let print_opts (o : Model.opts) =
  Printf.sprintf "slope=%b coupling=%b" o.with_slope o.with_coupling

let print_edge = function Edge.Rising -> "rising" | Edge.Falling -> "falling"

let print_path_spec s =
  Printf.sprintf
    "{tech=%s; kinds=[%s]; mults=[%s]; c_out=%.4g fF; branch=%.4g fF; slope=%.4g ps; edge=%s; %s}"
    s.p_tech.Tech.name
    (String.concat "; " (List.map Gate_kind.name s.kinds))
    (String.concat "; " (List.map (Printf.sprintf "%.3g") s.mults))
    s.c_out s.branch s.input_slope (print_edge s.input_edge) (print_opts s.opts)

let drop_nth i l = List.filteri (fun j _ -> j <> i) l
let set_nth i v l = List.mapi (fun j x -> if j = i then v else x) l

let shrink_path_spec ~min_stages s =
  let cands = ref [] in
  let add c = cands := c :: !cands in
  let n = List.length s.kinds in
  if n > min_stages then
    for i = 0 to n - 1 do
      add { s with kinds = drop_nth i s.kinds; mults = drop_nth i s.mults }
    done;
  if s.p_tech.Tech.name <> technologies.(0).Tech.name then
    add { s with p_tech = technologies.(0) };
  List.iteri
    (fun i k ->
      if not (Gate_kind.equal k Gate_kind.Inv) then
        add { s with kinds = set_nth i Gate_kind.Inv s.kinds })
    s.kinds;
  List.iteri (fun i m -> if m > 1.001 then add { s with mults = set_nth i 1. s.mults }) s.mults;
  if s.input_edge <> Edge.Rising then add { s with input_edge = Edge.Rising };
  if s.opts <> Model.default_opts then add { s with opts = Model.default_opts };
  Seq.iter (fun v -> add { s with c_out = v }) (Gen.shrink_float ~lo:2. s.c_out);
  Seq.iter (fun v -> add { s with branch = v }) (Gen.shrink_float ~lo:0. s.branch);
  Seq.iter (fun v -> add { s with input_slope = v }) (Gen.shrink_float ~lo:5. s.input_slope);
  List.to_seq (List.rev !cands)

let path_spec ?(kinds = all_path_kinds) ?(min_stages = 1) ?(max_stages = 8) () =
  if min_stages < 1 || max_stages < min_stages then invalid_arg "Circuit.path_spec";
  let gen rng size =
    let span = min (max_stages - min_stages + 1) (max 1 size) in
    let n = min_stages + Rng.int rng span in
    let ks = List.init n (fun _ -> Rng.pick rng kinds) in
    let mults = List.init n (fun _ -> Rng.log_range rng 1. 32.) in
    {
      p_tech = Rng.pick rng technologies;
      kinds = ks;
      mults;
      c_out = Rng.log_range rng 2. 200.;
      branch = Rng.float rng 20.;
      input_slope = Rng.log_range rng 5. 300.;
      input_edge = (if Rng.bool rng then Edge.Rising else Edge.Falling);
      opts = Rng.pick rng opts_choices;
    }
  in
  Gen.make ~shrink:(shrink_path_spec ~min_stages) ~print:print_path_spec gen

let to_path s =
  Path.of_kinds ~opts:s.opts ~input_slope:s.input_slope ~input_edge:s.input_edge
    ~branch:s.branch ~lib:(library s.p_tech) ~c_out:s.c_out s.kinds

let sizing s =
  let cmin = s.p_tech.Tech.cmin in
  Array.of_list (List.map (fun m -> m *. cmin) s.mults)

(* ------------------------------------------------------------------ *)
(* random DAG netlists                                                 *)
(* ------------------------------------------------------------------ *)

type dag_spec = { d_seed : int64; n_inputs : int; n_gates : int }

let print_dag_spec s =
  Printf.sprintf "dag{seed=0x%Lx; inputs=%d; gates=%d}" s.d_seed s.n_inputs s.n_gates

let shrink_dag_spec s =
  Seq.append
    (Seq.map (fun g -> { s with n_gates = g }) (Gen.shrink_int ~lo:1 s.n_gates))
    (Seq.map (fun i -> { s with n_inputs = i }) (Gen.shrink_int ~lo:2 s.n_inputs))

let dag_spec =
  Gen.make ~shrink:shrink_dag_spec ~print:print_dag_spec (fun rng size ->
      {
        d_seed = Rng.int64 rng;
        n_inputs = 2 + Rng.int rng (max 1 (min size 8));
        n_gates = 1 + Rng.int rng (max 1 (2 * size));
      })

let dag_kinds = all_path_kinds

let build_dag ?(tech = Tech.cmos025) spec =
  let rng = Rng.create spec.d_seed in
  let nl = Netlist.create tech in
  let n_inputs = max 2 spec.n_inputs and n_gates = max 1 spec.n_gates in
  let nodes = Array.make (n_inputs + n_gates) 0 in
  for i = 0 to n_inputs - 1 do
    nodes.(i) <- Netlist.add_input nl
  done;
  for g = 0 to n_gates - 1 do
    let avail = n_inputs + g in
    let kind = Rng.pick rng dag_kinds in
    let fanins =
      Array.init (Gate_kind.arity kind) (fun _ ->
          (* bias towards recent nodes so the DAG develops depth *)
          let off =
            if Rng.bool rng then Rng.int rng (min avail 12) else Rng.int rng avail
          in
          nodes.(avail - 1 - off))
    in
    let cin = tech.Tech.cmin *. Rng.log_range rng 1. 16. in
    let wire = if Rng.int rng 4 = 0 then Rng.float rng 10. else 0. in
    nodes.(avail) <- Netlist.add_gate ~cin ~wire nl kind fanins
  done;
  List.iter
    (fun id ->
      if Netlist.fanouts nl id = [] then
        Netlist.set_output nl id ~load:(5. +. Rng.float rng 55.))
    (Netlist.gate_ids nl);
  (match Netlist.outputs nl with
  | [] -> Netlist.set_output nl nodes.(n_inputs + n_gates - 1) ~load:30.
  | _ :: _ -> ());
  nl

(* ------------------------------------------------------------------ *)
(* edit sequences                                                      *)
(* ------------------------------------------------------------------ *)

type edit =
  | Resize of int * float
  | Set_wire of int * float
  | Set_load of int * float
  | Insert_buffer of int
  | De_morgan of int
  | Set_vt of int * Pops_process.Vt.t

let print_edit = function
  | Resize (i, m) -> Printf.sprintf "resize(%d, %.3gx)" i m
  | Set_wire (i, w) -> Printf.sprintf "set_wire(%d, %.3g fF)" i w
  | Set_load (i, l) -> Printf.sprintf "set_load(%d, %.3g fF)" i l
  | Insert_buffer i -> Printf.sprintf "insert_buffer(%d)" i
  | De_morgan i -> Printf.sprintf "de_morgan(%d)" i
  | Set_vt (i, vt) -> Printf.sprintf "set_vt(%d, %s)" i (Pops_process.Vt.name vt)

let shrink_edit e =
  let ints i rebuild = Seq.map rebuild (Gen.shrink_int ~lo:0 i) in
  match e with
  | Resize (i, m) ->
    Seq.append (ints i (fun i' -> Resize (i', m)))
      (Seq.map (fun m' -> Resize (i, m')) (Gen.shrink_float ~lo:1. m))
  | Set_wire (i, w) ->
    Seq.append (Seq.return (Resize (i, 1.))) (ints i (fun i' -> Set_wire (i', w)))
  | Set_load (i, l) ->
    Seq.append (Seq.return (Resize (i, 1.))) (ints i (fun i' -> Set_load (i', l)))
  | Insert_buffer i ->
    Seq.append (Seq.return (Resize (i, 1.))) (ints i (fun i' -> Insert_buffer i'))
  | De_morgan i ->
    Seq.append (Seq.return (Resize (i, 1.))) (ints i (fun i' -> De_morgan i'))
  | Set_vt (i, vt) ->
    Seq.append (Seq.return (Resize (i, 1.))) (ints i (fun i' -> Set_vt (i', vt)))

let edit =
  Gen.make ~shrink:shrink_edit ~print:print_edit (fun rng _size ->
      match Rng.int rng 6 with
      | 0 -> Resize (Rng.int rng 64, Rng.log_range rng 1. 32.)
      | 1 -> Set_wire (Rng.int rng 64, Rng.float rng 15.)
      | 2 -> Set_load (Rng.int rng 8, 5. +. Rng.float rng 55.)
      | 3 -> Insert_buffer (Rng.int rng 64)
      | 4 -> De_morgan (Rng.int rng 64)
      | _ -> Set_vt (Rng.int rng 64, Rng.pick rng Pops_process.Vt.all))

let nth_wrap l i = match List.length l with 0 -> None | n -> Some (List.nth l (i mod n))

let apply_edit nl e =
  let cmin = (Netlist.tech nl).Tech.cmin in
  match e with
  | Resize (i, m) -> (
    match nth_wrap (Netlist.gate_ids nl) i with
    | Some id ->
      Netlist.set_cin nl id (Float.min (1000. *. cmin) (Float.max cmin (m *. cmin)))
    | None -> ())
  | Set_wire (i, w) -> (
    match nth_wrap (Netlist.gate_ids nl) i with
    | Some id -> Netlist.set_wire nl id (Float.max 0. w)
    | None -> ())
  | Set_load (i, l) -> (
    match nth_wrap (List.map fst (Netlist.outputs nl)) i with
    | Some id -> Netlist.set_output nl id ~load:(Float.max 0. l)
    | None -> ())
  | Insert_buffer i -> (
    match nth_wrap (Netlist.gate_ids nl) i with
    | Some id -> ignore (Transform.insert_buffer nl ~after:id)
    | None -> ())
  | De_morgan i -> (
    match nth_wrap (Netlist.gate_ids nl) i with
    | Some id -> ignore (Transform.de_morgan nl id)
    | None -> ())
  | Set_vt (i, vt) -> (
    match nth_wrap (Netlist.gate_ids nl) i with
    | Some id -> Netlist.set_vt nl id vt
    | None -> ())

(* ------------------------------------------------------------------ *)
(* spine circuits                                                      *)
(* ------------------------------------------------------------------ *)

type spine_spec = {
  sp_tag : int;
  sp_path_gates : int;
  sp_total_gates : int;
  sp_out_load : float;
}

let print_spine_spec s =
  Printf.sprintf "spine{tag=%d; path=%d; total=%d; out_load=%.3g fF}" s.sp_tag
    s.sp_path_gates s.sp_total_gates s.sp_out_load

let shrink_spine_spec s =
  Seq.append
    (Seq.map
       (fun p -> { s with sp_path_gates = p; sp_total_gates = max (2 * p) (2 * 3) })
       (Gen.shrink_int ~lo:3 s.sp_path_gates))
    (Seq.map (fun t -> { s with sp_tag = t }) (Gen.shrink_int ~lo:0 s.sp_tag))

let spine_spec =
  Gen.make ~shrink:shrink_spine_spec ~print:print_spine_spec (fun rng size ->
      let path_gates = 3 + Rng.int rng (max 1 (min size 5)) in
      {
        sp_tag = Rng.int rng 1_000_000;
        sp_path_gates = path_gates;
        sp_total_gates = 2 * path_gates;
        sp_out_load = 30. +. Rng.float rng 60.;
      })

let build_spine tech s =
  let profile =
    Generator.make_profile
      ~name:(Printf.sprintf "prop-%d-%d" s.sp_tag s.sp_path_gates)
      ~path_gates:s.sp_path_gates ~total_gates:s.sp_total_gates
      ~out_load:s.sp_out_load ()
  in
  Generator.generate tech profile

(* ------------------------------------------------------------------ *)
(* SPICE oracle domain                                                 *)
(* ------------------------------------------------------------------ *)

let spice_chain =
  path_spec ~kinds:[| Gate_kind.Inv; Gate_kind.Nand 2; Gate_kind.Nor 2 |]
    ~min_stages:2 ~max_stages:6 ()

let sanitize_spice s =
  let clampf lo hi v = Float.min hi (Float.max lo v) in
  {
    s with
    opts = Model.default_opts;
    branch = clampf 0. 5. s.branch;
    c_out = clampf 10. 100. s.c_out;
    input_slope = clampf 20. 100. s.input_slope;
    mults = List.map (clampf 1. 16.) s.mults;
  }

let to_vt_path s vt =
  let lib = library s.p_tech in
  let shift = Tech.vt_shift vt in
  let tech =
    { s.p_tech with Tech.vtn = s.p_tech.Tech.vtn +. shift;
      vtp = s.p_tech.Tech.vtp +. shift }
  in
  let stage kind =
    { Path.cell = Pops_cell.Library.find_vt lib kind vt; branch = s.branch }
  in
  Path.make ~opts:s.opts ~input_slope:s.input_slope ~input_edge:s.input_edge
    ~tech ~c_out:s.c_out (List.map stage s.kinds)
