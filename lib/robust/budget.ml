type t = {
  deadline : float option;  (* absolute Unix time, seconds *)
  sweep_cap : int option;
  mutable sweeps : int;
}

let create ?wall_ms ?sweeps () =
  let deadline =
    Option.map (fun ms -> Unix.gettimeofday () +. (ms /. 1000.)) wall_ms
  in
  { deadline; sweep_cap = sweeps; sweeps = 0 }

let spend b n = b.sweeps <- b.sweeps + n

let sweeps_spent b = b.sweeps

let over_sweeps b =
  match b.sweep_cap with Some cap -> b.sweeps >= cap | None -> false

let over_wall b =
  match b.deadline with
  | Some d -> Unix.gettimeofday () >= d
  | None -> false

let exhausted b = over_sweeps b || over_wall b

(* how many iterations a loop may still run; callers use it to cap their
   [max_iter] so a budgeted solve stops at the cap instead of overshooting *)
let remaining_sweeps b ~default =
  match b.sweep_cap with
  | None -> default
  | Some cap -> max 0 (min default (cap - b.sweeps))

let diag b =
  let what =
    match (over_sweeps b, over_wall b) with
    | true, true -> "iteration and wall-clock caps"
    | true, false -> Printf.sprintf "iteration cap (%d sweeps)" b.sweeps
    | false, true -> "wall-clock cap"
    | false, false -> "budget"
  in
  Diag.makef Diag.Budget_exceeded "optimization budget exhausted: %s" what
