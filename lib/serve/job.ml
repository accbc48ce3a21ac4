module Diag = Pops_robust.Diag

type source = Inline of string | File of string
type action = Analyze | Optimize | Health

type t = {
  seq : int;
  id : string;
  tenant : string;
  source : source;
  action : action;
  tc_ps : float option;
  tc_ratio : float option;
  max_rounds : int option;
  k_paths : int option;
  vt_assign : bool;
}

let known_fields =
  [ "id"; "tenant"; "bench"; "bench_file"; "action"; "tc_ps"; "tc_ratio";
    "max_rounds"; "k_paths"; "vt_assign" ]

let of_json ~seq json =
  let ( let* ) = Result.bind in
  (* a present field must have its type and range; an absent one takes
     its default *)
  let field k conv ok what =
    match Json.member k json with
    | None -> Ok None
    | Some v -> (
      match conv v with
      | Some x when ok x -> Ok (Some x)
      | Some _ | None -> Error (Printf.sprintf "%S must be %s" k what))
  in
  let any _ = true and positive x = x > 0. && Float.is_finite x in
  match json with
  | Json.Obj _ -> (
    match
      List.find_opt (fun k -> not (List.mem k known_fields)) (Json.obj_keys json)
    with
    | Some k -> Error (Printf.sprintf "unknown field %S" k)
    | None ->
      let str k = Option.bind (Json.member k json) Json.to_str in
      let* action =
        match Json.member "action" json with
        | None -> Ok Optimize
        | Some (Json.Str "analyze") -> Ok Analyze
        | Some (Json.Str "optimize") -> Ok Optimize
        | Some (Json.Str "health") -> Ok Health
        | Some (Json.Str s) ->
          Error (Printf.sprintf "unknown action %S (analyze | optimize | health)" s)
        | Some _ -> Error "\"action\" must be a string"
      in
      let* source =
        match (str "bench", str "bench_file") with
        | Some text, None -> Ok (Inline text)
        | None, Some file -> Ok (File file)
        | Some _, Some _ -> Error "give either \"bench\" or \"bench_file\", not both"
        | None, None ->
          if Json.member "bench" json <> None || Json.member "bench_file" json <> None
          then Error "\"bench\" / \"bench_file\" must be strings"
          else if action = Health then
            (* a health probe carries no netlist *)
            Ok (Inline "")
          else Error "a netlist is required: \"bench\" or \"bench_file\""
      in
      let* id = field "id" Json.to_str any "a string" in
      let* tenant = field "tenant" Json.to_str any "a string" in
      let* tc_ps = field "tc_ps" Json.to_float positive "a finite number > 0" in
      let* tc_ratio = field "tc_ratio" Json.to_float positive "a finite number > 0" in
      let* max_rounds = field "max_rounds" Json.to_int (fun n -> n >= 0) "an integer >= 0" in
      let* k_paths = field "k_paths" Json.to_int (fun n -> n >= 1) "an integer >= 1" in
      let* vt_assign = field "vt_assign" Json.to_bool any "a boolean" in
      Ok
        {
          seq;
          id = Option.value id ~default:(Printf.sprintf "job-%d" seq);
          tenant = Option.value tenant ~default:"default";
          source;
          action;
          tc_ps;
          tc_ratio;
          max_rounds;
          k_paths;
          vt_assign = Option.value vt_assign ~default:false;
        })
  | _ -> Error "a job request must be a JSON object"

type status = Ok_ | Degraded | Unmet | Rejected | Overloaded | Invalid | Failed

type result = {
  seq : int;
  id : string;
  tenant : string;
  status : status;
  cache : [ `Hit | `Miss | `None ];
  metrics : (string * Json.t) list;
  diags : Diag.t list;
  ms : float;
}

let status_name = function
  | Ok_ -> "ok"
  | Degraded -> "degraded"
  | Unmet -> "unmet"
  | Rejected -> "rejected"
  | Overloaded -> "overloaded"
  | Invalid -> "invalid"
  | Failed -> "failed"

(* the PR 5 contract: 0 success (possibly degraded), 1 constraint (an
   admission rejection or a load-shed is a resource constraint), 2
   invalid input, 3 internal error *)
let exit_of_status = function
  | Ok_ | Degraded -> 0
  | Unmet | Rejected | Overloaded -> 1
  | Invalid -> 2
  | Failed -> 3

let round3 x =
  if Float.is_finite x then Float.round (x *. 1000.) /. 1000. else x

let to_json ~times r =
  let base =
    [ ("id", Json.Str r.id); ("tenant", Json.Str r.tenant);
      ("seq", Json.Num (float_of_int r.seq));
      ("status", Json.Str (status_name r.status));
      ("exit", Json.Num (float_of_int (exit_of_status r.status))) ]
  in
  let cache =
    match r.cache with
    | `Hit -> [ ("netlist_cache", Json.Str "hit") ]
    | `Miss -> [ ("netlist_cache", Json.Str "miss") ]
    | `None -> []
  in
  let diags =
    match r.diags with
    | [] -> []
    | ds -> [ ("diags", Json.Arr (List.map (fun d -> Json.Str (Diag.one_line d)) ds)) ]
  in
  let ms = if times then [ ("ms", Json.Num (round3 r.ms)) ] else [] in
  Json.Obj (base @ cache @ r.metrics @ diags @ ms)
