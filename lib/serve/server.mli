(** The [cgcm serve] daemon: a single-threaded, select-driven
    unix-socket server over one request {!Engine}.

    One event loop owns accepting, framing, admission, execution and
    write-back, so shared state is consistent between iterations —
    crash-only by construction. Admission happens the moment a request
    frame arrives; one queued request executes per iteration, so bursts
    are shed at the door rather than buffered invisibly.

    Lifecycle hardening: startup probes (rather than clobbers) an
    existing socket file; {!stop} triggers a graceful drain; peers that
    stall mid-frame or never read their replies are dropped with a
    typed error frame. *)

type t

val create :
  ?engine_config:Engine.config ->
  ?journal:Journal.t ->
  ?journal_path:string ->
  ?read_deadline_s:float ->
  ?drain_grace_s:float ->
  ?log:(string -> unit) ->
  socket_path:string ->
  unit ->
  t
(** Bind and listen on [socket_path]. An existing socket file is probed
    first: a live daemon behind it raises
    [Cgcm_support.Errors.Serve_socket_busy]; a dead daemon's stale file
    is reclaimed. [journal_path] makes the daemon replay that journal,
    re-create it from the replayed state and {!Engine.recover} before
    serving; [journal] instead hands a pre-built journal to the engine
    as is (it wins when both are given). Either way the engine records
    every durable fact before replying. [read_deadline_s] (default 10)
    bounds how long a peer may hold a frame open (slow-loris);
    [drain_grace_s] (default 10) bounds the graceful drain. *)

val engine : t -> Engine.t

val stop : t -> unit
(** Ask {!run} to wind down after the current iteration (signal-handler
    safe: it only sets a flag). *)

val draining : t -> bool
(** True once the graceful drain has begun: the listen socket is closed
    and unlinked, and new "run" frames are shed with a typed reply. *)

val run : t -> string * int
(** Serve until {!stop} or a [shutdown] frame, then drain gracefully:
    the listen socket closes and unlinks immediately (new connects fail
    fast), queued requests execute, replies flush, late frames on
    surviving connections are shed with a typed [Overloaded] reply —
    all bounded by the drain grace. Returns the final stats line and
    the residual device block count (0 = leak-free). *)
