module Diag = Pops_robust.Diag
module Fdx = Pops_util.Fdx

(* Buffered line reads over a raw descriptor, with a non-blocking probe:
   [In_channel] cannot say whether bytes are already buffered, which is
   exactly what adaptive batching needs. *)
module Line_source = struct
  type t = { fd : Unix.file_descr; lines : Session.Linebuf.t; mutable eof : bool }

  let of_fd fd = { fd; lines = Session.Linebuf.create (); eof = false }

  let chunk = Bytes.create 65536

  (* block in select (honouring [deadline]) before the blocking read, so
     an idle stream times out instead of parking in [Unix.read] forever *)
  let refill ?deadline t =
    match Fdx.wait_readable ?deadline t.fd with
    | `Timeout -> `Timeout
    | `Ready -> (
      match Unix.read t.fd chunk 0 (Bytes.length chunk) with
      | 0 ->
        t.eof <- true;
        `Eof
      | n ->
        Session.Linebuf.push t.lines chunk n;
        `Bytes
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Bytes)

  let residue_or_eof t =
    match Session.Linebuf.pop_residue t.lines with
    | Some line -> `Line line
    | None -> `Eof

  (* the next line, blocking until bytes arrive or [deadline] passes; a
     final unterminated line is returned as a line *)
  let rec next ?deadline t =
    match Session.Linebuf.pop_line t.lines with
    | Some line -> `Line line
    | None ->
      if t.eof then residue_or_eof t
      else (
        match refill ?deadline t with
        | `Bytes -> next ?deadline t
        | `Eof -> residue_or_eof t
        | `Timeout -> `Timeout)

  (* non-blocking: [Some (Some line)] when a full line is available
     without waiting, [Some None] at end of stream, [None] when a read
     would block *)
  let rec next_ready t =
    match Session.Linebuf.pop_line t.lines with
    | Some line -> Some (Some line)
    | None ->
      if t.eof then Some (Session.Linebuf.pop_residue t.lines)
      else if Fdx.readable_now t.fd then (
        match refill t with
        | `Bytes -> next_ready t
        | `Eof -> Some (Session.Linebuf.pop_residue t.lines)
        | `Timeout -> None)
      else None
end

(* ------------------------------------------------------------------ *)

let serve engine ?(summary = true) ?idle_timeout ?(log = fun _ -> ()) fd oc =
  let window = (Engine.config engine).Engine.window in
  let src = Line_source.of_fd fd in
  let seq = ref 0 in
  let decode_next line =
    let s = !seq in
    incr seq;
    Session.decode ~seq:s line
  in
  let deadline () = Option.map (fun s -> Fdx.now () +. s) idle_timeout in
  let worst = ref 0 in
  (* one batch: block for a first line, then drain what is already
     pending up to the window *)
  let rec fill acc n =
    if n >= window then List.rev acc
    else
      match Line_source.next_ready src with
      | Some (Some line) when Session.skippable line -> fill acc n
      | Some (Some line) -> fill (decode_next line :: acc) (n + 1)
      | Some None | None -> List.rev acc
  in
  let rec loop () =
    match Line_source.next ?deadline:(deadline ()) src with
    | `Eof -> ()
    | `Timeout ->
      (* same contract as a socket session: an idle stream is closed
         with a deadline diagnostic, not an error exit *)
      log
        (Diag.makef ~subject:"stdin" Diag.Deadline_exceeded
           "stream idle past the deadline; treating as end of stream")
    | `Line line when Session.skippable line -> loop ()
    | `Line line ->
      let results = Session.run_items engine (fill [ decode_next line ] 1) in
      List.iter (fun r -> output_string oc (Session.render engine r)) results;
      flush oc;
      worst := max !worst (Session.worst_exit results);
      loop ()
  in
  loop ();
  if summary then begin
    output_string oc (Json.to_string (Engine.summary_json engine) ^ "\n");
    flush oc
  end;
  !worst
