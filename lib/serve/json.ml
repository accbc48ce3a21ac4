type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of int * string

let fail pos msg = raise (Parse_error (pos, msg))

(* ------------------------------------------------------------------ *)
(* parser: recursive descent over a string with a mutable cursor       *)
(* ------------------------------------------------------------------ *)

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance c;
    skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c.pos (Printf.sprintf "expected '%c'" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c.pos (Printf.sprintf "expected %s" word)

(* the value of one escape, its backslash just consumed *)
let parse_escape c b =
  match peek c with
  | None -> fail c.pos "unterminated escape"
  | Some e -> (
    advance c;
    match e with
    | '"' -> Buffer.add_char b '"'
    | '\\' -> Buffer.add_char b '\\'
    | '/' -> Buffer.add_char b '/'
    | 'b' -> Buffer.add_char b '\b'
    | 'f' -> Buffer.add_char b '\012'
    | 'n' -> Buffer.add_char b '\n'
    | 'r' -> Buffer.add_char b '\r'
    | 't' -> Buffer.add_char b '\t'
    | 'u' ->
      if c.pos + 4 > String.length c.s then fail c.pos "truncated \\u escape";
      let hex = String.sub c.s c.pos 4 in
      let code =
        try int_of_string ("0x" ^ hex)
        with _ -> fail c.pos "bad \\u escape"
      in
      c.pos <- c.pos + 4;
      (* UTF-8 encode the code point (surrogate pairs not recombined:
         the protocol's payloads are ASCII) *)
      if code < 0x80 then Buffer.add_char b (Char.chr code)
      else if code < 0x800 then begin
        Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
        Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
      end
      else begin
        Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
        Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
        Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
      end
    | _ -> fail (c.pos - 1) "unknown escape")

(* the cursor sits just past the opening quote; each run up to the next
   quote or backslash is copied whole *)
let parse_string_body c =
  let s = c.s in
  let len = String.length s in
  let b = Buffer.create 16 in
  let rec run () =
    let start = c.pos in
    let i = ref start in
    while !i < len && String.unsafe_get s !i <> '"' && String.unsafe_get s !i <> '\\' do
      incr i
    done;
    Buffer.add_substring b s start (!i - start);
    c.pos <- !i;
    if !i = len then fail c.pos "unterminated string"
    else if String.unsafe_get s !i = '"' then begin
      advance c;
      Buffer.contents b
    end
    else begin
      advance c;
      parse_escape c b;
      run ()
    end
  in
  run ()

let parse_number c =
  let start = c.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek c with Some ch -> is_num_char ch | None -> false) do
    advance c
  done;
  let text = String.sub c.s start (c.pos - start) in
  match float_of_string_opt text with
  | Some f -> Num f
  | None -> fail start ("bad number " ^ text)

(* arrays and objects nest at most this deep: requests nest 2 deep and
   result lines 3, and the bound keeps one hostile line from recursing
   through the serving thread's stack *)
let max_depth = 512

let rec parse_value c depth =
  skip_ws c;
  match peek c with
  | None -> fail c.pos "unexpected end of input"
  | Some ('{' | '[') when depth >= max_depth ->
    fail c.pos (Printf.sprintf "nesting deeper than %d" max_depth)
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws c;
        expect c '"';
        let key = parse_string_body c in
        skip_ws c;
        expect c ':';
        let v = parse_value c (depth + 1) in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          members ((key, v) :: acc)
        | Some '}' ->
          advance c;
          List.rev ((key, v) :: acc)
        | _ -> fail c.pos "expected ',' or '}'"
      in
      Obj (members [])
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      Arr []
    end
    else begin
      let rec elements acc =
        let v = parse_value c (depth + 1) in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          elements (v :: acc)
        | Some ']' ->
          advance c;
          List.rev (v :: acc)
        | _ -> fail c.pos "expected ',' or ']'"
      in
      Arr (elements [])
    end
  | Some '"' ->
    advance c;
    Str (parse_string_body c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c.pos (Printf.sprintf "unexpected character '%c'" ch)

let parse s =
  let c = { s; pos = 0 } in
  match parse_value c 0 with
  | v ->
    skip_ws c;
    if c.pos <> String.length s then
      Error (Printf.sprintf "byte %d: trailing garbage" c.pos)
    else Ok v
  | exception Parse_error (pos, msg) ->
    Error (Printf.sprintf "byte %d: %s" pos msg)

(* ------------------------------------------------------------------ *)
(* printer                                                             *)
(* ------------------------------------------------------------------ *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let to_string v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num f -> Buffer.add_string b (number_to_string f)
    | Str s -> escape_string b s
    | Arr xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          go x)
        xs;
      Buffer.add_char b ']'
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char b ',';
          escape_string b k;
          Buffer.add_char b ':';
          go x)
        fields;
      Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function Num f -> Some f | _ -> None

let to_int = function
  | Num f when Float.is_integer f && Float.abs f <= 1e9 -> Some (int_of_float f)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let obj_keys = function Obj fields -> List.map fst fields | _ -> []
