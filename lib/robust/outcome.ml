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
