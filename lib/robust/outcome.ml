type 'a t =
  | Exact of 'a
  | Degraded of 'a * Diag.t list
  | Failed of Diag.t

let make v diags =
  match
    List.filter (fun (d : Diag.t) -> d.Diag.severity <> Diag.Info) diags
  with
  | [] -> Exact v
  | _ :: _ -> Degraded (v, diags)

let value = function Exact v | Degraded (v, _) -> Some v | Failed _ -> None

let get = function
  | Exact v | Degraded (v, _) -> v
  | Failed d -> raise (Diag.Fatal d)

let diags = function
  | Exact _ -> []
  | Degraded (_, ds) -> ds
  | Failed d -> [ d ]

let degraded = function Degraded _ -> true | Exact _ | Failed _ -> false

let map f = function
  | Exact v -> Exact (f v)
  | Degraded (v, ds) -> Degraded (f v, ds)
  | Failed d -> Failed d

let pp pp_v ppf = function
  | Exact v -> Format.fprintf ppf "@[<v>exact: %a@]" pp_v v
  | Degraded (v, ds) ->
    Format.fprintf ppf "@[<v>degraded (%d diagnostics): %a" (List.length ds) pp_v v;
    List.iter (fun d -> Format.fprintf ppf "@ %a" Diag.pp d) ds;
    Format.fprintf ppf "@]"
  | Failed d -> Format.fprintf ppf "failed: %a" Diag.pp d
