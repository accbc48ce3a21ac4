module Path = Pops_delay.Path

type point = { a : float; delay : float; area : float }

let curve ?(points = 40) ?(a_deep = 50.) path =
  let sample a =
    let x = (Sensitivity.solve ~a path).sizing in
    (* one fused both-polarity pass per point; the scratch is created
       inside the task closure so each pool domain owns its own *)
    let sc = Path.scratch () in
    Path.delay_both path sc x;
    let delay = if sc.Path.own >= sc.Path.flip then sc.Path.own else sc.Path.flip in
    { a; delay; area = Path.area path x }
  in
  (* every Pareto point is an independent fixed-point solve at its own
     sensitivity, so fan the sweep out per point; the result list keeps
     the magnitude order regardless of which domain solved which point *)
  let magnitudes = Pops_util.Numerics.logspace 1e-4 a_deep (points - 1) in
  let sweep =
    Array.to_list (Pops_util.Pool.parallel_map (fun m -> sample (-.m)) magnitudes)
  in
  sample 0. :: sweep

let sizing_vs_buffering ~lib ?points path =
  let plain = curve ?points path in
  let inserted = Buffers.insert_global ~objective:`Tmin ~lib path in
  let buffered = curve ?points inserted.Buffers.path in
  (plain, buffered)

let crossover_delay plain buffered =
  (* Both curves are sorted by increasing delay (a = 0 first ... actually
     a = 0 is the fastest, so delay increases along the list).  For each
     plain point, find the buffered area at (or just below) that delay and
     compare. *)
  let interp_area curve d =
    let rec go = function
      | [] -> None
      | [ p ] -> if p.delay <= d then Some p.area else None
      | p :: (q :: _ as rest) ->
        if p.delay <= d && d < q.delay then Some p.area
        else if d < p.delay then None
        else go rest
    in
    go curve
  in
  let rec scan = function
    | [] -> None
    | p :: rest -> (
      match interp_area buffered p.delay with
      | Some ab when ab < p.area -> Some p.delay
      | _ -> scan rest)
  in
  scan plain
