type align = Left | Right

type t = {
  title : string option;
  header : string list;
  aligns : align array;
  mutable rows : string list list; (* reversed *)
}

let create ?title columns =
  {
    title;
    header = List.map fst columns;
    aligns = Array.of_list (List.map snd columns);
    rows = [];
  }

let ncols t = List.length t.header

let add_row t cells =
  let n = ncols t in
  let len = List.length cells in
  let cells =
    if len = n then cells
    else if len < n then cells @ List.init (n - len) (fun _ -> "")
    else List.filteri (fun i _ -> i < n) cells
  in
  t.rows <- cells :: t.rows

let render t =
  let rows = List.rev t.rows in
  let widths = Array.of_list (List.map String.length t.header) in
  let update_widths cs =
    List.iteri
      (fun i c -> if i < Array.length widths then widths.(i) <- max widths.(i) (String.length c))
      cs
  in
  List.iter update_widths rows;
  let buf = Buffer.create 1024 in
  let pad i c =
    let w = widths.(i) in
    let n = w - String.length c in
    match t.aligns.(i) with
    | Left -> c ^ String.make n ' '
    | Right -> String.make n ' ' ^ c
  in
  let hline () =
    Array.iter (fun w -> Buffer.add_string buf ("+" ^ String.make (w + 2) '-')) widths;
    Buffer.add_string buf "+\n"
  in
  let line cells =
    List.iteri (fun i c -> Buffer.add_string buf ("| " ^ pad i c ^ " ")) cells;
    Buffer.add_string buf "|\n"
  in
  (match t.title with
  | Some title -> Buffer.add_string buf (title ^ "\n")
  | None -> ());
  hline ();
  line t.header;
  hline ();
  List.iter line rows;
  hline ();
  Buffer.contents buf

let print t = print_string (render t); print_newline ()

let cell_f ?(decimals = 2) x = Printf.sprintf "%.*f" decimals x
