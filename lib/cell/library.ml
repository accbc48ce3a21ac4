type t = {
  tech : Pops_process.Tech.t;
  cells : (Gate_kind.t * Cell.t array) list;
      (* per kind, the three Vt variants indexed by [Vt.to_int] *)
  grid : float array;
}

let grid_multiples = [| 1.; 2.; 3.; 4.; 6.; 8.; 12.; 16.; 24.; 32.; 48.; 64. |]

let make ?(kinds = Gate_kind.all) tech =
  let cells =
    List.map
      (fun kind ->
        (kind, Array.map (fun vt -> Cell.make ~vt tech kind) Pops_process.Vt.all))
      kinds
  in
  { tech; cells; grid = Array.map (fun m -> m *. tech.cmin) grid_multiples }

let tech t = t.tech

(* a plain recursive scan: no closure or option per lookup, so the
   per-gate folds over a netlist (area, power) allocate nothing here *)
let rec variants_of kind = function
  | [] -> raise Not_found
  | (k, variants) :: rest ->
    if Gate_kind.equal k kind then variants else variants_of kind rest

let find_variants t kind = variants_of kind t.cells

let find t kind = (find_variants t kind).(0)

let find_vt t kind vt = (find_variants t kind).(Pops_process.Vt.to_int vt)

let inverter t = find t Gate_kind.Inv

let cells t = List.map (fun (_, variants) -> variants.(0)) t.cells

let drive_grid t = Array.copy t.grid

let snap_cin t cin =
  let n = Array.length t.grid in
  if cin > t.grid.(n - 1) then cin
  else
    let rec go i = if t.grid.(i) >= cin then t.grid.(i) else go (i + 1) in
    go 0

let pp ppf t =
  Format.fprintf ppf "@[<v>library (%s):@ " t.tech.name;
  List.iter (fun (_, variants) -> Format.fprintf ppf "%a@ " Cell.pp variants.(0)) t.cells;
  Format.fprintf ppf "@]"
