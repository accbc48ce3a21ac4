module Diag = Pops_robust.Diag
module Fault = Pops_robust.Fault
module Fdx = Pops_util.Fdx

(* ------------------------------------------------------------------ *)
(* shared protocol helpers: one implementation for every transport     *)
(* ------------------------------------------------------------------ *)

type item = (Job.t, int * string) result

(* an intake slot: a job for the engine, or a result decided at intake *)
type slot = (Job.t, Job.result) result

let skippable line =
  let line = String.trim line in
  line = "" || line.[0] = '#'

(* a line that fails JSON or job decoding still yields a result line in
   sequence position — the stream never skips or reorders *)
let decode ~seq line : item =
  match Json.parse line with
  | Error e -> Error (seq, Printf.sprintf "not a JSON object: %s" e)
  | Ok json -> (
    match Job.of_json ~seq json with
    | Ok job -> Ok job
    | Error e -> Error (seq, e))

let bad_line_result ~seq error =
  {
    Job.seq;
    id = Printf.sprintf "job-%d" seq;
    tenant = "default";
    status = Job.Invalid;
    cache = `None;
    metrics = [ ("error", Json.Str error) ];
    diags = [];
    ms = 0.;
  }

let slot_of_item = function
  | Ok job -> Ok job
  | Error (seq, e) -> Error (bad_line_result ~seq e)

(* a request line is buffered up to this many bytes; a longer one is
   discarded unread and answered with one invalid result *)
let in_limit = 64 * 1024 * 1024

let oversize_result ~seq =
  {
    Job.seq;
    id = Printf.sprintf "job-%d" seq;
    tenant = "default";
    status = Job.Invalid;
    cache = `None;
    metrics = [];
    diags =
      [ Diag.makef Diag.Invalid_input ~subject:"request"
          "line longer than %d bytes, discarded unread" in_limit ];
    ms = 0.;
  }

(* The typed load-shed response for an intake slot: status
   [overloaded], exit 1, a [retry_after_ms] metric and an
   {!Pops_robust.Diag.Overloaded} diagnostic.  Echoes the decoded job's
   [id]/[tenant] when the line parsed; the job never reaches the
   engine. *)
let overloaded_result ~retry_after_ms slot =
  let seq, id, tenant =
    match slot with
    | Ok (j : Job.t) -> (j.Job.seq, j.Job.id, j.Job.tenant)
    | Error (r : Job.result) -> (r.Job.seq, r.Job.id, r.Job.tenant)
  in
  {
    Job.seq;
    id;
    tenant;
    status = Job.Overloaded;
    cache = `None;
    metrics = [ ("retry_after_ms", Json.Num (float_of_int retry_after_ms)) ];
    diags =
      [ Diag.makef Diag.Overloaded
          "job %s shed: the session's in-flight queue is full" id ];
    ms = 0.;
  }

(* run one batch of slots: jobs go through the engine together, the
   results decided at intake slot in between, all in submission order;
   the engine's counters account both *)
let run_items engine slots =
  let jobs =
    List.filter_map (function Ok job -> Some job | Error _ -> None) slots
  in
  let results = Engine.run_batch engine jobs in
  List.iter (function Error r -> Engine.count engine r | Ok _ -> ()) slots;
  let rec merge slots results =
    match (slots, results) with
    | [], [] -> []
    | Error r :: slots, results -> r :: merge slots results
    | Ok _ :: slots, r :: results -> r :: merge slots results
    | Ok _ :: _, [] | [], _ :: _ -> assert false
  in
  merge slots results

let render engine r =
  let times = (Engine.config engine).Engine.times in
  Json.to_string (Job.to_json ~times r) ^ "\n"

let worst_exit results =
  List.fold_left
    (fun acc r -> max acc (Job.exit_of_status r.Job.status))
    0 results

(* ------------------------------------------------------------------ *)
(* line buffer                                                         *)
(* ------------------------------------------------------------------ *)

module Linebuf = struct
  (* One byte buffer: bytes [start, len) are unread and none of
     [start, scan) is a newline.  A pop costs the line it returns: the
     consumed prefix is compacted away only once it passes half the
     buffer, and a push that does not fit doubles it.

     A line longer than [limit] bytes is popped as [Oversize] as soon as
     that many of its bytes are buffered (or when it ends, whichever is
     first), so whether a line is too long does not depend on how its
     bytes were chunked.  Its buffered bytes are dropped, and until its
     newline arrives pushes are scanned for it and not kept. *)
  type line = Line of string | Oversize

  type t = {
    limit : int;
    mutable buf : Bytes.t;
    mutable start : int;
    mutable scan : int;
    mutable len : int;
    mutable discarding : bool;  (* inside an oversize line *)
  }

  let create ?(limit = in_limit) () =
    { limit; buf = Bytes.create 4096; start = 0; scan = 0; len = 0; discarding = false }

  (* move the unread bytes to the front of a buffer of [cap] bytes *)
  let compact t cap =
    let live = t.len - t.start in
    let dst = if cap = Bytes.length t.buf then t.buf else Bytes.create cap in
    Bytes.blit t.buf t.start dst 0 live;
    t.buf <- dst;
    t.scan <- t.scan - t.start;
    t.start <- 0;
    t.len <- live

  let append t bytes off n =
    if t.len + n > Bytes.length t.buf then
      compact t (max (2 * Bytes.length t.buf) (t.len - t.start + n));
    Bytes.blit bytes off t.buf t.len n;
    t.len <- t.len + n

  let rec newline_in bytes i n =
    if i >= n then -1 else if Bytes.get bytes i = '\n' then i else newline_in bytes (i + 1) n

  let push t bytes n =
    if not t.discarding then append t bytes 0 n
    else
      match newline_in bytes 0 n with
      | -1 -> ()
      | i ->
        t.discarding <- false;
        append t bytes (i + 1) (n - i - 1)

  (* drop every buffered byte, and the grown buffer with them *)
  let reset t =
    t.buf <- Bytes.create 4096;
    t.start <- 0;
    t.scan <- 0;
    t.len <- 0

  let pop_line t =
    let i = ref t.scan in
    while !i < t.len && Bytes.get t.buf !i <> '\n' do
      incr i
    done;
    if !i - t.start > t.limit then begin
      (* too long, ended or not *)
      if !i = t.len then begin
        reset t;
        t.discarding <- true
      end
      else begin
        t.start <- !i + 1;
        t.scan <- t.start;
        compact t (max 4096 (t.len - t.start))
      end;
      Some Oversize
    end
    else if !i = t.len then begin
      t.scan <- t.len;
      None
    end
    else begin
      (* tolerate CRLF clients *)
      let stop = if !i > t.start && Bytes.get t.buf (!i - 1) = '\r' then !i - 1 else !i in
      let line = Bytes.sub_string t.buf t.start (stop - t.start) in
      t.start <- !i + 1;
      t.scan <- t.start;
      if t.start > Bytes.length t.buf / 2 then compact t (Bytes.length t.buf);
      Some (Line line)
    end

  let pop_residue t =
    if t.discarding then begin
      (* the rest of a line already answered *)
      t.discarding <- false;
      None
    end
    else if t.len = t.start then None
    else begin
      let line = Bytes.sub_string t.buf t.start (t.len - t.start) in
      t.start <- 0;
      t.scan <- 0;
      t.len <- 0;
      Some (Line line)
    end
end

(* a popped line takes a sequence slot unless it is blank or a comment *)
let takes_slot = function
  | Linebuf.Line l -> not (skippable l)
  | Linebuf.Oversize -> true

let slot_of_line ~seq = function
  | Linebuf.Line l -> slot_of_item (decode ~seq l)
  | Linebuf.Oversize -> Error (oversize_result ~seq)

(* ------------------------------------------------------------------ *)
(* the per-connection state machine                                    *)
(* ------------------------------------------------------------------ *)

type config = {
  queue_limit : int;
  idle_timeout : float option;
  retry_after_ms : int;
  summary : bool;
}

let default_config =
  { queue_limit = 256; idle_timeout = None; retry_after_ms = 1000;
    summary = true }

(* a client that sends but never reads must not buffer the server into
   the ground: past this backlog the session is closed, not grown *)
let out_limit = 8 * 1024 * 1024

type phase =
  | Active  (* reading requests *)
  | Draining  (* client EOF seen; run what is queued, then summarise *)
  | Finishing  (* everything rendered; flush the backlog, then close *)
  | Closed

type t = {
  id : int;
  sock : Unix.file_descr;
  peer_label : string;
  log : Diag.t -> unit;
  config : config;
  engine : Engine.t;
  inbuf : Linebuf.t;
  chunk : Bytes.t;
  queue : slot Queue.t;
  outq : Buffer.t;  (* rendered lines not yet moved to [pending] *)
  mutable pending : Bytes.t;  (* being written *)
  mutable pos : int;
  mutable phase : phase;
  mutable seq : int;
  mutable jobs : int;  (* results that went through the engine *)
  mutable shed : int;
  mutable worst : int;
  mutable deadline : float option;
}

let create ~id ~peer ~log ~config engine sock =
  Fdx.set_nonblock sock;
  let t =
    {
      id;
      sock;
      peer_label = peer;
      log;
      config;
      engine;
      inbuf = Linebuf.create ();
      chunk = Bytes.create 65536;
      queue = Queue.create ();
      outq = Buffer.create 4096;
      pending = Bytes.empty;
      pos = 0;
      phase = Active;
      seq = 0;
      jobs = 0;
      shed = 0;
      worst = 0;
      deadline = None;
    }
  in
  (match config.idle_timeout with
  | Some s -> t.deadline <- Some (Fdx.now () +. s)
  | None -> ());
  t

let fd t = t.sock
let closed t = t.phase = Closed
let wants_read t = t.phase = Active

let out_bytes t = Bytes.length t.pending - t.pos + Buffer.length t.outq
let wants_write t = t.phase <> Closed && out_bytes t > 0
let deadline t = if t.phase = Closed then None else t.deadline

let touch t =
  match t.config.idle_timeout with
  | Some s -> t.deadline <- Some (Fdx.now () +. s)
  | None -> ()

let net_diag t fmt = Diag.makef ~subject:t.peer_label Diag.Net_error fmt

let close ?diag t =
  if t.phase <> Closed then begin
    (match diag with Some d -> t.log d | None -> ());
    (try Unix.close t.sock with Unix.Unix_error _ -> ());
    t.phase <- Closed
  end

let emit t r =
  t.worst <- max t.worst (Job.exit_of_status r.Job.status);
  Buffer.add_string t.outq (render t.engine r);
  if out_bytes t > out_limit then
    close t
      ~diag:
        (net_diag t "response backlog exceeded %d bytes: client is not reading"
           out_limit)

let intake t line =
  if takes_slot line then begin
    let seq = t.seq in
    t.seq <- seq + 1;
    let slot = slot_of_line ~seq line in
    if Queue.length t.queue >= t.config.queue_limit then begin
      (* explicit load-shedding: a typed response with a retry hint
         instead of a silently growing queue *)
      t.shed <- t.shed + 1;
      t.log
        (Diag.makef ~subject:t.peer_label Diag.Overloaded
           "shed job seq %d: in-flight queue full at %d" seq
           t.config.queue_limit);
      emit t (overloaded_result ~retry_after_ms:t.config.retry_after_ms slot)
    end
    else Queue.add slot t.queue
  end

let handle_readable t =
  if t.phase = Active then begin
    if Fault.fire "net.stall" then begin
      (* simulate a stalled connection: stop reading and let the idle
         deadline machinery close the session deterministically *)
      t.log
        (Diag.makef ~subject:t.peer_label ~severity:Diag.Info
           Diag.Fault_injected
           "net.stall: session frozen until its idle deadline");
      t.deadline <- Some (Fdx.now () -. 1.)
    end
    else if Fault.fire "net.read" then
      close t ~diag:(net_diag t "injected read failure (net.read)")
    else begin
      (* bounded pull per visit so one firehose client cannot starve the
         other sessions; leftover bytes keep the descriptor readable *)
      let rec pull budget =
        if budget = 0 then `More
        else
          match Fdx.read t.sock t.chunk with
          | Fdx.Read n ->
            Linebuf.push t.inbuf t.chunk n;
            touch t;
            pull (budget - 1)
          | Fdx.Read_blocked -> `Blocked
          | Fdx.Read_eof -> `Eof
          | Fdx.Read_closed e -> `Failed e
      in
      let verdict = pull 4 in
      let rec pop () =
        match Linebuf.pop_line t.inbuf with
        | Some line ->
          intake t line;
          pop ()
        | None -> ()
      in
      pop ();
      match verdict with
      | `More | `Blocked -> ()
      | `Eof ->
        (* a final unterminated line still counts *)
        (match Linebuf.pop_residue t.inbuf with
        | Some line -> intake t line
        | None -> ());
        t.phase <- Draining
      | `Failed e -> close t ~diag:(net_diag t "read failed: %s" e)
    end
  end

let summary_line t =
  Json.to_string
    (Json.Obj
       [ ("summary", Json.Bool true);
         ("jobs", Json.Num (float_of_int t.jobs));
         ("shed", Json.Num (float_of_int t.shed));
         ("worst_exit", Json.Num (float_of_int t.worst)) ])
  ^ "\n"

let runnable t =
  match t.phase with
  | Active -> not (Queue.is_empty t.queue)
  | Draining -> true
  | Finishing | Closed -> false

let step t =
  if t.phase = Active || t.phase = Draining then begin
    if not (Queue.is_empty t.queue) then begin
      let window = (Engine.config t.engine).Engine.window in
      let rec take acc n =
        if n >= window || Queue.is_empty t.queue then List.rev acc
        else take (Queue.pop t.queue :: acc) (n + 1)
      in
      let items = take [] 0 in
      let results = run_items t.engine items in
      t.jobs <- t.jobs + List.length results;
      List.iter (emit t) results
    end;
    if t.phase = Draining && Queue.is_empty t.queue then begin
      if t.config.summary then Buffer.add_string t.outq (summary_line t);
      t.phase <- Finishing
    end
  end

let flush t =
  if t.phase <> Closed then
    if out_bytes t > 0 && Fault.fire "net.write" then
      close t ~diag:(net_diag t "injected write failure (net.write)")
    else begin
      let rec go () =
        if t.phase = Closed then ()
        else if t.pos < Bytes.length t.pending then
          match
            Fdx.write t.sock t.pending t.pos (Bytes.length t.pending - t.pos)
          with
          | Fdx.Wrote n ->
            t.pos <- t.pos + n;
            touch t;
            go ()
          | Fdx.Write_blocked -> ()
          | Fdx.Write_closed e ->
            close t ~diag:(net_diag t "write failed: %s" e)
        else if Buffer.length t.outq > 0 then begin
          t.pending <- Buffer.to_bytes t.outq;
          Buffer.clear t.outq;
          t.pos <- 0;
          go ()
        end
        else if t.phase = Finishing then close t
      in
      go ()
    end

let expire t ~now =
  match t.deadline with
  | Some d when t.phase <> Closed && now >= d ->
    close t
      ~diag:
        (Diag.makef ~subject:t.peer_label Diag.Deadline_exceeded
           "session closed: idle past its deadline");
    true
  | _ -> false

let finish t =
  if t.phase <> Closed then begin
    if t.phase = Active then t.phase <- Draining;
    while runnable t do
      step t
    done;
    (* the client may be gone; a blocking flush classifies the failure
       instead of raising, and close is unconditional *)
    Fdx.set_block t.sock;
    flush t;
    close t
  end
