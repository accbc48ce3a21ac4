module Path = Pops_delay.Path
module Model = Pops_delay.Model

let delay_per_stage path x =
  let x = Path.clamp_sizing path x in
  let loads = Path.loads path x in
  let n = Path.length path in
  let out = Array.make n (0., 0.) in
  let tau_in = ref path.Path.input_slope in
  for i = 0 to n - 1 do
    let d, tau_out =
      Model.stage_delay ~opts:path.Path.opts path.Path.stages.(i).Path.cell
        ~edge_out:path.Path.edges.(i) ~tau_in:!tau_in ~cin:x.(i) ~cload:loads.(i)
    in
    out.(i) <- (d, tau_out);
    tau_in := tau_out
  done;
  out

let size ?(iters = 4) path ~tc =
  let n = Path.length path in
  let x = ref (Path.min_sizing path) in
  for _ = 1 to iters do
    let per = delay_per_stage path !x in
    let slopes = Array.make n path.Path.input_slope in
    for i = 1 to n - 1 do
      slopes.(i) <- snd per.(i - 1)
    done;
    let d0 = fst per.(0) in
    let budget = Float.max 0.1 ((tc -. d0) /. float_of_int (max 1 (n - 1))) in
    let y = Path.clamp_sizing path !x in
    for j = n - 1 downto 1 do
      let cell = path.Path.stages.(j).Path.cell in
      let next = if j = n - 1 then path.Path.c_out else y.(j + 1) in
      let fixed_load = path.Path.stages.(j).Path.branch +. next in
      let stage_delay xj =
        let cload = Pops_cell.Cell.cpar cell ~cin:xj +. fixed_load in
        fst
          (Model.stage_delay ~opts:path.Path.opts cell
             ~edge_out:path.Path.edges.(j) ~tau_in:slopes.(j) ~cin:xj ~cload)
      in
      let lo = Pops_cell.Cell.min_cin cell in
      let hi = 4096. *. lo in
      y.(j) <-
        (if stage_delay lo <= budget then lo
         else if stage_delay hi >= budget then hi
         else Pops_util.Numerics.bisect ~caller:"sutherland" ~tol:1e-6
                ~f:(fun xj -> stage_delay xj -. budget)
                ~lo ~hi ())
    done;
    x := y
  done;
  !x
