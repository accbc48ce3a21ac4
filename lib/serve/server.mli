(** The NDJSON stream front end of the engine.

    [pops serve] speaks newline-delimited JSON over a pipe or socketpair:
    one request object per input line, one result object per output line,
    results in submission order, flushed as each batch completes, and an
    optional summary object at end of stream.

    Batching is adaptive: the intake loop blocks for the first request,
    then drains whatever further lines are {e already available} (its
    own buffer plus a zero-timeout poll of the descriptor) up to the
    engine's window.  A client that streams jobs gets window-sized
    batches and full pool fan-out; a client that sends one request and
    waits gets a batch of one and minimum latency — no flags, no
    timers.

    The protocol itself (decoding, batching, rendering, exit codes)
    lives in {!Session} and is shared with the socket {!Listener}, so
    the two transports return bit-identical result streams. *)

val serve :
  Engine.t ->
  ?summary:bool ->
  ?idle_timeout:float ->
  ?log:(Pops_robust.Diag.t -> unit) ->
  Unix.file_descr ->
  out_channel ->
  int
(** Run the request loop until end of stream over a pipe, a socket or a
    regular file ([pops optimize --jobs FILE]); returns the {e worst}
    per-job exit code of the stream (3 failed > 2 invalid > 1 unmet,
    rejected or overloaded > 0 ok).  [pops serve] exits 0 regardless, since
    per-job failures are result lines, not server failures (see
    docs/serving.md); [pops optimize --jobs] exits with it.  [summary]
    (default true) appends the {!Engine.summary_json} line at shutdown.
    [idle_timeout] (seconds) closes an idle stream through the same
    deadline path the socket listener uses: the timeout is treated as
    end of stream and a [deadline-exceeded] diagnostic goes to [log]
    (default: dropped). *)
