(** One supervised connection of the socket listener — and the protocol
    helpers every NDJSON transport shares.

    A session owns exactly the state of its connection: a line buffer, a
    bounded queue of decoded-but-unrun jobs, an outgoing byte backlog,
    and an idle deadline.  The {!Listener} drives it from a single
    select loop; nothing a session does — a malformed frame, a client
    that disconnects mid-request, an armed [net.*] fault — can degrade
    anything but the session itself.  Every abnormal closure is reported
    through the session's log callback as a typed {!Pops_robust.Diag.t},
    in the deterministic order the loop processed it.

    The protocol helpers ({!decode}, {!run_items}, {!render}, ...) are
    the single implementation used by both this module and the stdio
    {!Server}, so the two transports cannot drift. *)

(** {1 Shared protocol helpers} *)

type item = (Job.t, int * string) result
(** One intake slot: a decoded job, or [(seq, error)] for a line that
    failed JSON or job decoding — either way the slot renders exactly
    one result line in sequence position. *)

type slot = (Job.t, Job.result) result
(** What an intake slot runs as: a job for the engine, or a result
    decided at intake (a bad line's, an oversize line's). *)

val in_limit : int
(** The longest request line a transport buffers, in bytes (64 MiB,
    above the ~57 MB line of a 1M-gate netlist).  A longer line is
    discarded unread and answered with one result: status [invalid],
    exit 2, one {!Pops_robust.Diag.Invalid_input} diagnostic. *)

val decode : seq:int -> string -> item

val bad_line_result : seq:int -> string -> Job.result

val overloaded_result : retry_after_ms:int -> slot -> Job.result
(** The typed load-shed response for an intake slot: status
    [overloaded], exit 1, a [retry_after_ms] metric and an
    {!Pops_robust.Diag.Overloaded} diagnostic.  Echoes the decoded
    job's [id]/[tenant] when the line parsed; the job never reaches
    the engine. *)

val run_items : Engine.t -> slot list -> Job.result list
(** Run one batch: the jobs go through the engine together, and their
    results merge with the ones decided at intake in submission
    order.  The engine's counters ({!Engine.summary_json}) account
    both. *)

val render : Engine.t -> Job.result -> string
(** One result line (newline-terminated), honouring the engine's
    [times] configuration. *)

val worst_exit : Job.result list -> int

(** {1 Line buffer} *)

module Linebuf : sig
  (** Bytes in, lines out: the framing of every NDJSON transport. *)

  type line =
    | Line of string
    | Oversize  (** a line longer than the limit, discarded unread *)

  type t

  val create : ?limit:int -> unit -> t
  (** [limit] (default {!in_limit}) bounds a line in bytes, before its
      ["\n"]; the buffer holds at most that plus what was pushed since
      the last {!pop_line}. *)

  val push : t -> Bytes.t -> int -> unit
  (** [push t chunk n] appends the first [n] bytes of [chunk] (inside an
      oversize line, only what follows its newline). *)

  val pop_line : t -> line option
  (** The first complete line, without its ["\n"] (or ["\r\n"]); or
      [Oversize] once the first line is known to be longer than the
      limit, whether it has ended or not.  Either way exactly once per
      line. *)

  val pop_residue : t -> line option
  (** Everything left, as a final unterminated line (at end of stream);
      [None] inside an oversize line, which has been answered. *)
end

val takes_slot : Linebuf.line -> bool
(** Everything but blank lines and [#] comments takes a sequence slot;
    an oversize line always does. *)

val slot_of_line : seq:int -> Linebuf.line -> slot
(** What a line runs as in slot [seq]: its decoded job, its
    {!bad_line_result}, or the result of an oversize line. *)

(** {1 Sessions} *)

type config = {
  queue_limit : int;
      (** max decoded jobs waiting to run; further frames are shed with
          {!overloaded_result} instead of stalling silently *)
  idle_timeout : float option;
      (** seconds of inactivity (no bytes read, no write progress)
          before the session is closed with a
          {!Pops_robust.Diag.Deadline_exceeded} diagnostic *)
  retry_after_ms : int;  (** hint carried by shed responses *)
  summary : bool;
      (** append the session-local summary line
          ([{"summary":true,"jobs":N,"shed":K,"worst_exit":E}]) before
          a clean close *)
}

val default_config : config
(** queue limit 256, no idle timeout, retry hint 1000 ms, summary on. *)

type t

val create :
  id:int -> peer:string -> log:(Pops_robust.Diag.t -> unit) ->
  config:config -> Engine.t -> Unix.file_descr -> t
(** Takes ownership of the (socket) descriptor and switches it to
    non-blocking mode.  [peer] labels the session's diagnostics. *)

val fd : t -> Unix.file_descr
val peer : t -> string
val closed : t -> bool

val wants_read : t -> bool
val wants_write : t -> bool
(** Which select sets the session belongs in right now. *)

val deadline : t -> float option
(** The absolute instant at which {!expire} would close the session;
    the listener blocks in select no longer than the nearest one. *)

val handle_readable : t -> unit
(** Pull available bytes, decode complete lines into the queue (shedding
    beyond [queue_limit]), note EOF.  [net.read] and [net.stall] fault
    points fire here. *)

val step : t -> unit
(** Run at most one engine window of queued jobs and render the results
    into the outgoing backlog.  After EOF, the last step appends the
    summary line and moves the session to flush-then-close. *)

val runnable : t -> bool
(** Does {!step} have work to do? *)

val flush : t -> unit
(** Non-blocking write of the outgoing backlog.  [net.write] fires
    here; a vanished client closes only this session. *)

val expire : t -> now:float -> bool
(** Close the session if its deadline has passed (deadline-exceeded
    diagnostic); returns whether it did. *)

val finish : t -> unit
(** Drain mode: run {e all} queued jobs (each still under the engine's
    per-job budgets), append the summary, flush blockingly, close. *)

val close : ?diag:Pops_robust.Diag.t -> t -> unit
(** Close the descriptor (idempotent).  [diag] marks an abnormal cause
    and is re-emitted through the log callback. *)
