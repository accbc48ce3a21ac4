(* BENCH_parallel.json: domain-pool fan-out — speedup and determinism.
   Each kernel runs at 1, 2, 4 and host_cores domains; its result
   fingerprint must be bit-identical at every count. *)

open Harness

let parallel () =
  let t = Table.create
      ~title:(Printf.sprintf "parallel - domain-pool fan-out (host reports %d core%s)"
                host_cores (if host_cores = 1 then "" else "s"))
      [ ("kernel", Table.Left); ("circuit", Table.Left);
        ("domains", Table.Right); ("time (ms)", Table.Right);
        ("speedup", Table.Right) ]
  in
  let kernel ~name ~circuit ~fingerprint f =
    List.iter
      (fun (a : _ at) ->
        emit "BENCH_parallel.json"
          [ ("kernel", str name); ("circuit", str circuit); ("domains", int a.domains);
            ("ns_per_op", num a.result.ns); ("speedup", opt a.speedup);
            ("unmeasurable", Json.Bool a.unmeasurable) ];
        Table.add_row t
          [ name; circuit; string_of_int a.domains;
            Table.cell_f ~decimals:2 (a.result.ns /. 1e6);
            (match a.speedup with
            | Some s -> Printf.sprintf "%.2fx" s
            | None -> "unmeasurable") ])
      (sweep ~what:(Printf.sprintf "parallel %s/%s" name circuit)
         ~fingerprint:(fun m -> fingerprint m.value)
         ~cost:(fun m -> m.ns)
         (fun () -> (time ~rounds:(if !smoke then 1 else 3) [| f |]).(0)))
  in
  (* protocol candidates — sizing / buffering / restructuring evaluated
     concurrently per path (Protocol.run) *)
  let protocol_suite =
    List.filter_map Profiles.find
      (if !smoke then [ "fpd"; "c432"; "c880" ] else [ "c432"; "c880"; "c1355"; "c1908" ])
  in
  kernel ~name:"protocol_candidates" ~circuit:"path-suite"
    ~fingerprint:(fun reports ->
      String.concat ";"
        (List.map
           (fun (r : Protocol.report) ->
             Printf.sprintf "%s|%h|%h" (Protocol.strategy_to_string r.Protocol.strategy)
               r.Protocol.delay r.Protocol.area)
           reports))
    (fun () ->
      List.map
        (fun (p : Profiles.t) ->
          Protocol.run ~lib ~tc:(1.1 *. (bounds_of p).Bounds.tmin) (extracted_path p))
        protocol_suite);
  (* AMPS restarts — split-seeded random restarts reduced in restart
     order (Random_search.minimum_delay) *)
  let module Rs = Pops_baselines.Random_search in
  let amps_profile = Option.get (Profiles.find (if !smoke then "c432" else "c1908")) in
  let amps_path = extracted_path amps_profile in
  kernel ~name:"amps_restarts" ~circuit:amps_profile.Profiles.name
    ~fingerprint:(fun (r : Rs.result) ->
      Printf.sprintf "%h|%h|%d|%s" r.Rs.delay r.Rs.area r.Rs.evaluations
        (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") r.Rs.sizing))))
    (fun () -> Rs.minimum_delay ~restarts:(if !smoke then 4 else 8) amps_path);
  Table.print t;
  Printf.printf
    "shape check: identical fingerprints at every domain count (the pool's\n\
     ordered submission-index reduction); speedup approaches the core count\n\
     up to host_cores; rows with more domains than cores are unmeasurable\n\
     (scheduling overhead, not scaling) and record no speedup claim, never\n\
     changing a bit of the result either way.\n"
