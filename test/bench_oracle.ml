(* The reference .bench parser: the line-list parse that Bench_io used
   before its one-scan intake, kept verbatim as the oracle of
   [bench.parse_matches_oracle] (test/pops_prop.ml).  It splits the text
   into lines, parses each into a statement record, defines the sources,
   then re-scans the pending gate list until a pass builds nothing — so
   its node ids come out in (pass, line) order, which the one-scan
   parser reproduces with a worklist. *)

module Netlist = Pops_netlist.Netlist
module Gk = Pops_cell.Gate_kind
module Diag = Pops_robust.Diag
module Watch = Pops_robust.Watch
module Fault = Pops_robust.Fault

(* ------------------------------------------------------------------ *)
(* parsing                                                             *)
(* ------------------------------------------------------------------ *)

type statement =
  | S_input of string
  | S_output of string
  | S_gate of string * string * string list * float option * float option
      (* target, op, args, cin annotation, wire annotation *)

let trim = String.trim
let line_subject lineno = Printf.sprintf "line %d" lineno

let parse_annotations comment =
  (* "# cin=5.6 wire=1.2" -> (Some 5.6, Some 1.2) *)
  let tokens = String.split_on_char ' ' comment |> List.map trim in
  let find key =
    List.find_map
      (fun tok ->
        let prefix = key ^ "=" in
        if String.length tok > String.length prefix
           && String.sub tok 0 (String.length prefix) = prefix
        then
          float_of_string_opt
            (String.sub tok (String.length prefix)
               (String.length tok - String.length prefix))
        else None)
      tokens
  in
  (find "cin", find "wire")

let parse_call s =
  (* "NAND(a, b)" -> ("NAND", ["a"; "b"]) *)
  match String.index_opt s '(' with
  | None -> None
  | Some i ->
    let op = trim (String.sub s 0 i) in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    (match String.rindex_opt rest ')' with
    | None -> None
    | Some j ->
      let args_str = String.sub rest 0 j in
      let args =
        if trim args_str = "" then []
        else String.split_on_char ',' args_str |> List.map trim
      in
      Some (String.uppercase_ascii op, args))

let parse_line lineno line =
  let code, comment =
    match String.index_opt line '#' with
    | Some i ->
      (String.sub line 0 i, String.sub line i (String.length line - i))
    | None -> (line, "")
  in
  let code = trim code in
  if code = "" then Ok None
  else
    let fail msg =
      Error (Diag.makef Diag.Bench_syntax ~subject:(line_subject lineno) "%s" msg)
    in
    match String.index_opt code '=' with
    | None -> (
      match parse_call code with
      | Some ("INPUT", [ name ]) -> Ok (Some (S_input name))
      | Some ("OUTPUT", [ name ]) -> Ok (Some (S_output name))
      | Some (("INPUT" | "OUTPUT"), _) -> fail "INPUT/OUTPUT take one signal"
      | Some (op, _) -> fail (Printf.sprintf "unknown statement %s" op)
      | None -> fail "expected INPUT(..), OUTPUT(..) or a gate assignment")
    | Some i -> (
      let target = trim (String.sub code 0 i) in
      let rhs = trim (String.sub code (i + 1) (String.length code - i - 1)) in
      if target = "" then fail "empty target signal"
      else
        match parse_call rhs with
        | None -> fail "expected OP(arg, ...) on the right-hand side"
        | Some (op, args) ->
          let cin, wire = parse_annotations comment in
          Ok (Some (S_gate (target, op, args, cin, wire))))

(* gate construction with tree decomposition for wide fan-in *)
let rec build_nand t args =
  match List.length args with
  | 0 -> Error "NAND with no inputs"
  | 1 -> Ok (Netlist.add_gate t Gk.Inv [| List.hd args |])
  | n when n <= 4 -> Ok (Netlist.add_gate t (Gk.Nand n) (Array.of_list args))
  | n ->
    let left, right = (List.filteri (fun i _ -> i < n / 2) args,
                       List.filteri (fun i _ -> i >= n / 2) args) in
    Result.bind (build_and t left) (fun a ->
        Result.bind (build_and t right) (fun b ->
            Ok (Netlist.add_gate t (Gk.Nand 2) [| a; b |])))

and build_and t args =
  match args with
  | [ single ] -> Ok single
  | _ -> Result.map (fun g -> Netlist.add_gate t Gk.Inv [| g |]) (build_nand t args)

let rec build_nor t args =
  match List.length args with
  | 0 -> Error "NOR with no inputs"
  | 1 -> Ok (Netlist.add_gate t Gk.Inv [| List.hd args |])
  | n when n <= 4 -> Ok (Netlist.add_gate t (Gk.Nor n) (Array.of_list args))
  | n ->
    let left, right = (List.filteri (fun i _ -> i < n / 2) args,
                       List.filteri (fun i _ -> i >= n / 2) args) in
    Result.bind (build_or t left) (fun a ->
        Result.bind (build_or t right) (fun b ->
            Ok (Netlist.add_gate t (Gk.Nor 2) [| a; b |])))

and build_or t args =
  match args with
  | [ single ] -> Ok single
  | _ -> Result.map (fun g -> Netlist.add_gate t Gk.Inv [| g |]) (build_nor t args)

let build_xor t args =
  match args with
  | [] -> Error "XOR with no inputs"
  | first :: rest ->
    Ok (List.fold_left (fun acc a -> Netlist.add_gate t Gk.Xor2 [| acc; a |]) first rest)

let build_gate t op args =
  match (op, args) with
  | ("NOT" | "INV"), [ a ] -> Ok (Netlist.add_gate t Gk.Inv [| a |])
  | ("NOT" | "INV"), _ -> Error "NOT takes one input"
  | ("BUF" | "BUFF"), [ a ] -> Ok (Netlist.add_gate t Gk.Buf [| a |])
  | ("BUF" | "BUFF"), _ -> Error "BUFF takes one input"
  | "NAND", args -> build_nand t args
  | "AND", args -> (
    match args with
    | [ _ ] -> Result.map (fun g -> g) (build_and t args)
    | _ -> Result.bind (build_nand t args) (fun g -> Ok (Netlist.add_gate t Gk.Inv [| g |])))
  | "NOR", args -> build_nor t args
  | "OR", args -> (
    match args with
    | [ _ ] -> build_or t args
    | _ -> Result.bind (build_nor t args) (fun g -> Ok (Netlist.add_gate t Gk.Inv [| g |])))
  | "XOR", ([ _; _ ] as args) -> Ok (Netlist.add_gate t Gk.Xor2 (Array.of_list args))
  | "XOR", args -> build_xor t args
  | "XNOR", ([ _; _ ] as args) -> Ok (Netlist.add_gate t Gk.Xnor2 (Array.of_list args))
  | "XNOR", args ->
    Result.map (fun g -> Netlist.add_gate t Gk.Inv [| g |]) (build_xor t args)
  | "AOI21", [ a; b; c ] -> Ok (Netlist.add_gate t Gk.Aoi21 [| a; b; c |])
  | "OAI21", [ a; b; c ] -> Ok (Netlist.add_gate t Gk.Oai21 [| a; b; c |])
  | "AOI22", [ a; b; c; d ] -> Ok (Netlist.add_gate t Gk.Aoi22 [| a; b; c; d |])
  | "OAI22", [ a; b; c; d ] -> Ok (Netlist.add_gate t Gk.Oai22 [| a; b; c; d |])
  | op, _ -> Error (Printf.sprintf "unsupported gate %s" op)

(* an error on the last statement-bearing line of the input, on a line
   with an unclosed call or dangling [=]/[,], is a truncated file rather
   than a typo — give it the dedicated code and hint *)
let looks_truncated line rest =
  let code =
    match String.index_opt line '#' with
    | Some i -> trim (String.sub line 0 i)
    | None -> trim line
  in
  let only_blank =
    List.for_all
      (fun l ->
        let c =
          match String.index_opt l '#' with
          | Some i -> String.sub l 0 i
          | None -> l
        in
        trim c = "")
      rest
  in
  let opens = ref 0 and closes = ref 0 in
  String.iter
    (fun c ->
      if c = '(' then incr opens else if c = ')' then incr closes)
    code;
  let n = String.length code in
  only_blank
  && (!opens > !closes
     || (n > 0 && (code.[n - 1] = '=' || code.[n - 1] = ',')))

let parse_diag tech ?out_load text =
  let out_load =
    Option.value out_load ~default:(4. *. tech.Pops_process.Tech.cmin)
  in
  let text =
    (* deterministic fault: drop the tail of the input mid-statement *)
    if Fault.fire "bench.truncate" && String.length text > 1 then begin
      Watch.emit
        (Diag.make Diag.Fault_injected ~severity:Diag.Info
           ~subject:"bench.truncate" "input truncated (fault injection)");
      String.sub text 0 (String.length text * 2 / 3)
    end
    else text
  in
  let lines = String.split_on_char '\n' text in
  (* first pass: collect statements *)
  let rec collect lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match parse_line lineno line with
      | Error d ->
        Error
          (if looks_truncated line rest then
             Diag.makef ?subject:d.Diag.subject Diag.Bench_truncated "%s"
               d.Diag.message
           else d)
      | Ok None -> collect (lineno + 1) acc rest
      | Ok (Some s) -> collect (lineno + 1) ((lineno, s) :: acc) rest)
  in
  match collect 1 [] lines with
  | Error e -> Error e
  | Ok statements ->
    let t = Netlist.create tech in
    let table : (string, int) Hashtbl.t = Hashtbl.create 64 in
    let define name id lineno =
      if Hashtbl.mem table name then
        Error
          (Diag.makef Diag.Bench_syntax ~subject:(line_subject lineno)
             "%s defined twice" name)
      else begin
        Hashtbl.replace table name id;
        Ok ()
      end
    in
    (* inputs and DFF outputs become sources immediately *)
    let sources_result =
      List.fold_left
        (fun acc (lineno, s) ->
          Result.bind acc (fun () ->
              match s with
              | S_input name -> define name (Netlist.add_input t) lineno
              | S_gate (target, "DFF", _, _, _) ->
                (* conventional combinational split: DFF output = pseudo PI *)
                define target (Netlist.add_input t) lineno
              | S_output _ | S_gate _ -> Ok ()))
        (Ok ()) statements
    in
    (* gates: iterate until all resolvable lines are built (bench files
       may reference signals defined later) *)
    let gates =
      List.filter_map
        (fun (lineno, s) ->
          match s with
          | S_gate (target, op, args, cin, wire) when op <> "DFF" ->
            Some (lineno, target, op, args, cin, wire)
          | S_gate _ | S_input _ | S_output _ -> None)
        statements
    in
    let build_ready () =
      let pending = ref gates and progress = ref true and err = ref None in
      while !progress && !err = None && !pending <> [] do
        progress := false;
        let still = ref [] in
        List.iter
          (fun ((lineno, target, op, args, cin, wire) as g) ->
            if !err <> None then still := g :: !still
            else if List.for_all (Hashtbl.mem table) args then begin
              let arg_ids = List.map (Hashtbl.find table) args in
              match build_gate t op arg_ids with
              | Error msg ->
                err :=
                  Some
                    (Diag.makef Diag.Bench_syntax ~subject:(line_subject lineno)
                       "%s" msg)
              | Ok id -> (
                (match cin with Some c -> Netlist.set_cin t id c | None -> ());
                (match wire with Some w -> Netlist.set_wire t id w | None -> ());
                match define target id lineno with
                | Error d -> err := Some d
                | Ok () -> progress := true)
            end
            else still := g :: !still)
          !pending;
        pending := List.rev !still
      done;
      let missing_of args =
        List.filter (fun a -> not (Hashtbl.mem table a)) args
      in
      let undefined lineno target missing =
        Diag.makef Diag.Bench_syntax ~subject:(line_subject lineno)
          "%s depends on undefined signal(s) %s" target
          (String.concat ", " missing)
      in
      match (!err, !pending) with
      | Some e, _ -> Error e
      | None, [] -> Ok ()
      | None, ((lineno0, target0, _, args0, _, _) :: _ as stuck) -> (
        (* a stalled build whose missing signals are all themselves stuck
           targets is a combinational loop, not an undefined signal —
           walk the dependency chain and name the actual cycle *)
        let gate_of name =
          List.find_opt (fun (_, tgt, _, _, _, _) -> tgt = name) stuck
        in
        let stuck_target name = gate_of name <> None in
        let missing0 = missing_of args0 in
        match List.find_opt (fun a -> not (stuck_target a)) missing0 with
        | Some _ -> Error (undefined lineno0 target0 missing0)
        | None ->
          let rec walk trail name =
            if List.mem name trail then
              let rec take acc = function
                | [] -> acc
                | x :: rest ->
                  if x = name then name :: acc else take (x :: acc) rest
              in
              (* the walk followed dependencies (upstream); reversed it
                 reads in signal-flow order *)
              let cycle = List.rev (take [] trail) in
              let lineno =
                match gate_of name with
                | Some (l, _, _, _, _, _) -> l
                | None -> lineno0
              in
              Error
                (Diag.makef Diag.Netlist_cycle ~subject:(line_subject lineno)
                   "combinational cycle: %s"
                   (String.concat " -> " (cycle @ [ List.hd cycle ])))
            else
              match gate_of name with
              | None -> Error (undefined lineno0 target0 missing0)
              | Some (l, tgt, _, args, _, _) -> (
                let missing = missing_of args in
                match List.find_opt stuck_target missing with
                | Some next -> walk (name :: trail) next
                | None -> Error (undefined l tgt missing))
          in
          walk [] target0)
    in
    let outputs_result () =
      List.fold_left
        (fun acc (lineno, s) ->
          Result.bind acc (fun () ->
              match s with
              | S_output name -> (
                match Hashtbl.find_opt table name with
                | Some id ->
                  Netlist.set_output t id ~load:out_load;
                  Ok ()
                | None ->
                  Error
                    (Diag.makef Diag.Bench_syntax ~subject:(line_subject lineno)
                       "OUTPUT(%s) never defined" name))
              | S_gate (_, "DFF", [ d ], _, _) -> (
                (* the DFF input is a pseudo primary output *)
                match Hashtbl.find_opt table d with
                | Some id ->
                  Netlist.set_output t id ~load:out_load;
                  Ok ()
                | None ->
                  Error
                    (Diag.makef Diag.Bench_syntax ~subject:(line_subject lineno)
                       "DFF input %s undefined" d))
              | S_gate (_, "DFF", _, _, _) ->
                Error
                  (Diag.makef Diag.Bench_syntax ~subject:(line_subject lineno)
                     "DFF takes one input")
              | S_input _ | S_gate _ -> Ok ()))
        (Ok ()) statements
    in
    Result.bind sources_result (fun () ->
        Result.bind (build_ready ()) (fun () ->
            Result.bind (outputs_result ()) (fun () ->
                match Netlist.validate t with
                | Ok () ->
                  (* names are unique keys: they alone order the pairs *)
                  let names = Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [] in
                  Ok (t, List.sort (fun (a, _) (b, _) -> String.compare a b) names)
                | Error msg ->
                  Error
                    (Diag.makef Diag.Internal
                       "invalid netlist after parse: %s" msg))))

let name_fn names =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (name, id) -> Hashtbl.replace tbl id name) names;
  fun id ->
    match Hashtbl.find_opt tbl id with
    | Some n -> n
    | None -> Printf.sprintf "n%d" id

let parse_o tech ?out_load text =
  match parse_diag tech ?out_load text with
  | Ok (t, names) ->
    (* the structural invariants passed ([Netlist.validate] ran inside
       the parse); surface quality warnings — zero-fanout gates and
       friends — as a degradation instead of hiding them *)
    let warnings = Netlist.validate_diags ~name:(name_fn names) t in
    Pops_robust.Outcome.make (t, names) warnings
  | Error d -> Pops_robust.Outcome.Failed d
  | exception Diag.Fatal d -> Pops_robust.Outcome.Failed d
  | exception e ->
    Pops_robust.Outcome.Failed
      (Diag.makef Diag.Internal "Bench_io.parse raised: %s"
         (Printexc.to_string e))
