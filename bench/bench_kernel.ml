(* BENCH_kernel.json: the compiled path kernel — ns/op, minor words/op
   and kernel passes/op for the allocation-free primitives and the
   solvers, and the buffer greedy's solves and trials per call.  Doubles
   as a regression guard: the fused kernels and the fpd solve must stay
   under pinned minor-words/op budgets, the fpd constraint sizing under a
   kernel-pass budget and Adder16's buffer greedy under a solve budget,
   or the run fails. *)

open Harness

let delay_kernel () =
  (* the budget covers the probe's own accounting (storing a returned
     boxed float costs 2 words); the kernels themselves allocate 0 *)
  let alloc_budget = 8. in
  (* a solve allocates its result, its report and the boxed floats of
     its passes; the Newton vectors live in the per-domain scratch *)
  let solve_budget = 300. in
  (* one constraint costs 69 passes (6 solves) on fpd as a Newton search
     on (ln (-a), beta) steered by implicit-function tangents; the budget
     is twice that.  The regula falsi search before it took 124, the
     nested beta x a search before that 4,335 *)
  let passes_budget = 138 in
  (* Adder16's buffer greedy at 1.3 Tmin makes 21 solves with the
     weak-duality screen, 60 without it; the budget is twice 21 *)
  let greedy_solves_budget = 42 in
  let t = Table.create
      ~title:"delay_kernel - compiled path kernel (ns/op, minor words/op, kernel passes/op)"
      [ ("kernel", Table.Left); ("circuit", Table.Left); ("stages", Table.Right);
        ("ns/op", Table.Right); ("words/op", Table.Right); ("passes", Table.Right);
        ("solves", Table.Right); ("screened", Table.Right); ("budget", Table.Left) ]
  in
  let bench ~iters ~kernel ~circuit ~stages ?budget ?max_passes ?max_solves
      ?(solves = false) ?(trials = false) f =
    let loop () =
      for _ = 1 to iters do
        ignore (Sys.opaque_identity (f ()))
      done
    in
    let m = (time ~rounds:3 [| loop |]).(0) in
    let ns = m.ns /. float_of_int iters and words = m.words /. float_of_int iters in
    (* deterministic, so one untimed call counts them *)
    let passes, n_solves, n_trials, n_screened =
      let s0 = Sens.sweeps_performed () and v0 = Sens.solves_performed () in
      let t0 = Buffers.trials_evaluated () and c0 = Buffers.trials_screened () in
      ignore (Sys.opaque_identity (f ()));
      ( Sens.sweeps_performed () - s0, Sens.solves_performed () - v0,
        Buffers.trials_evaluated () - t0, Buffers.trials_screened () - c0 )
    in
    let budget_cell =
      match (budget, max_passes, max_solves) with
      | Some b, _, _ when words > b ->
        fail "delay_kernel: %s/%s: %.1f minor words/op exceeds budget %.0f" kernel
          circuit words b;
        Printf.sprintf "EXCEEDED (%.0f)" b
      | _, Some p, _ when passes > p ->
        fail "delay_kernel: %s/%s: %d kernel passes exceed budget %d" kernel circuit
          passes p;
        Printf.sprintf "EXCEEDED (%d passes)" p
      | _, _, Some v when n_solves > v ->
        fail "delay_kernel: %s/%s: %d solves exceed budget %d" kernel circuit n_solves v;
        Printf.sprintf "EXCEEDED (%d solves)" v
      | Some b, _, _ -> Printf.sprintf "<= %.0f ok" b
      | None, Some p, _ -> Printf.sprintf "<= %d passes ok" p
      | None, None, Some v -> Printf.sprintf "<= %d solves ok" v
      | None, None, None -> "-"
    in
    emit "BENCH_kernel.json"
      ([ ("kernel", str kernel); ("circuit", str circuit); ("stages", int stages);
        ("ns_per_op", num ns); ("minor_words_per_op", num words);
        ("kernel_passes", int passes) ]
      @ (if solves then [ ("solves", int n_solves) ] else [])
      @ (if trials then [ ("trials_evaluated", int n_trials); ("trials_screened", int n_screened) ]
         else []));
    Table.add_row t
      [ kernel; circuit; string_of_int stages;
        Table.cell_f ~decimals:1 ns; Table.cell_f ~decimals:1 words;
        string_of_int passes;
        (if solves then string_of_int n_solves else "-");
        (if trials then Printf.sprintf "%d of %d" n_screened n_trials else "-");
        budget_cell ]
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
      let g = Array.make n 0. and hd = Array.make n 0. and ho = Array.make n 0. in
      let sc = Path.scratch () in
      let hot = if !smoke then 2000 else 20000 in
      bench ~iters:hot ~kernel:"delay_worst" ~circuit:name ~stages:n
        ~budget:alloc_budget (fun () -> Path.delay_worst path x);
      bench ~iters:hot ~kernel:"delay_both" ~circuit:name ~stages:n
        ~budget:alloc_budget (fun () -> Path.delay_both path sc x);
      bench ~iters:hot ~kernel:"gradient_into" ~circuit:name ~stages:n
        ~budget:alloc_budget (fun () -> Path.gradient_into path x g);
      (* the Newton rung's pass: both polarities at beta = 1/2, a < 0 *)
      bench ~iters:hot ~kernel:"gradient_hessian_into" ~circuit:name ~stages:n
        ~budget:alloc_budget (fun () ->
          Path.gradient_hessian_into path ~w_own:0.5 ~w_flip:0.5 ~a:(-1.) x g hd ho);
      bench ~iters:(if !smoke then 5 else 50) ~kernel:"sensitivity_solve"
        ~circuit:name ~stages:n
        ?budget:(if name = "fpd" then Some solve_budget else None)
        (fun () -> Sens.solve ~beta:1. ~tol:1e-6 path);
      let tc = 1.2 *. (bounds_of p).Bounds.tmin in
      bench ~iters:(if !smoke then 1 else 3) ~kernel:"size_for_constraint"
        ~circuit:name ~stages:n
        ?max_passes:(if name = "fpd" then Some passes_budget else None)
        ~solves:true
        (fun () -> Sens.size_for_constraint path ~tc))
    circuits;
  (* the buffer greedy in the medium domain, where its duality screen
     spares most trials their constraint search *)
  List.iter
    (fun (p : Profiles.t) ->
      let name = p.Profiles.name in
      if (not !smoke) || name = "Adder16" then begin
        let path = extracted_path p in
        let tc = 1.3 *. (bounds_of p).Bounds.tmin in
        bench ~iters:(if !smoke then 1 else 3) ~kernel:"insert_global" ~circuit:name
          ~stages:(Path.length path)
          ?max_solves:(if name = "Adder16" then Some greedy_solves_budget else None)
          ~solves:true ~trials:true
          (fun () -> Buffers.insert_global ~objective:(`Area_at tc) ~lib path)
      end)
    Profiles.all;
  Table.print t;
  Printf.printf
    "shape check: the fused kernels (delay_worst, delay_both, gradient_into,\n\
     gradient_hessian_into) stay within the %g minor-words/op accounting\n\
     budget - i.e. they allocate nothing; sensitivity_solve on fpd stays\n\
     within %g words/op (its working vectors are reused per domain);\n\
     size_for_constraint at 1.2 Tmin on fpd stays within %d kernel passes;\n\
     insert_global at 1.3 Tmin on Adder16 stays within %d solves (the\n\
     duality screen settles most trials); solver cost is dominated by the\n\
     pass count (see solve_stats).\n"
    alloc_budget solve_budget passes_budget greedy_solves_budget
