(* BENCH_kernel.json: the compiled path kernel — ns/op and minor
   words/op for the allocation-free primitives and the accelerated
   solvers.  Doubles as the allocation regression guard: the fused
   kernels must stay under a pinned minor-words/op budget or the run
   fails. *)

open Harness

let delay_kernel () =
  (* the budget covers the probe's own accounting (storing a returned
     boxed float costs 2 words); the kernels themselves allocate 0 *)
  let alloc_budget = 8. in
  let t = Table.create
      ~title:"delay_kernel - compiled path kernel (ns/op, minor words/op)"
      [ ("kernel", Table.Left); ("circuit", Table.Left); ("stages", Table.Right);
        ("ns/op", Table.Right); ("words/op", Table.Right); ("budget", Table.Left) ]
  in
  let bench ~iters ~kernel ~circuit ~stages ?budget f =
    let loop () =
      for _ = 1 to iters do
        ignore (Sys.opaque_identity (f ()))
      done
    in
    let m = (time ~rounds:3 [| loop |]).(0) in
    let ns = m.ns /. float_of_int iters and words = m.words /. float_of_int iters in
    let budget_cell =
      match budget with
      | None -> "-"
      | Some b when words <= b -> Printf.sprintf "<= %.0f ok" b
      | Some b ->
        fail "delay_kernel: %s/%s: %.1f minor words/op exceeds budget %.0f" kernel
          circuit words b;
        Printf.sprintf "EXCEEDED (%.0f)" b
    in
    emit "BENCH_kernel.json"
      [ ("kernel", str kernel); ("circuit", str circuit); ("stages", int stages);
        ("ns_per_op", num ns); ("minor_words_per_op", num words) ];
    Table.add_row t
      [ kernel; circuit; string_of_int stages;
        Table.cell_f ~decimals:1 ns; Table.cell_f ~decimals:1 words; budget_cell ]
  in
  let circuits = if !smoke then [ "fpd" ] else [ "fpd"; "c880"; "Adder16" ] in
  List.iter
    (fun name ->
      let p = Option.get (Profiles.find name) in
      let path = extracted_path p in
      let n = Path.length path in
      (* an interior sizing: away from the clamp bounds so every term of
         the closed form is exercised *)
      let x = Path.min_sizing path in
      Array.iteri (fun i v -> if i > 0 then x.(i) <- v *. 2.5) x;
      let g = Array.make n 0. in
      let sc = Path.scratch () in
      let hot = if !smoke then 2000 else 20000 in
      bench ~iters:hot ~kernel:"delay_worst" ~circuit:name ~stages:n
        ~budget:alloc_budget (fun () -> Path.delay_worst path x);
      bench ~iters:hot ~kernel:"delay_both" ~circuit:name ~stages:n
        ~budget:alloc_budget (fun () -> Path.delay_both path sc x);
      bench ~iters:hot ~kernel:"gradient_into" ~circuit:name ~stages:n
        ~budget:alloc_budget (fun () -> Path.gradient_into path x g);
      bench ~iters:(if !smoke then 5 else 50) ~kernel:"sensitivity_solve"
        ~circuit:name ~stages:n (fun () -> Sens.solve ~beta:1. ~tol:1e-6 path);
      let tc = 1.2 *. (bounds_of p).Bounds.tmin in
      bench ~iters:(if !smoke then 1 else 3) ~kernel:"bisect_for_beta"
        ~circuit:name ~stages:n (fun () -> Sens.bisect_for_beta ~beta:0.5 path ~tc))
    circuits;
  Table.print t;
  Printf.printf
    "shape check: the fused kernels (delay_worst, delay_both, gradient_into)\n\
     stay within the %g minor-words/op accounting budget - i.e. they allocate\n\
     nothing; solver cost is dominated by sweep count (see solve_stats).\n"
    alloc_budget
