(* The cgcm serve daemon: a single-threaded unix-socket server over one
   request {!Engine}.

   One select-driven event loop owns everything — accepting connections,
   framing, admission, execution, write-back — so there is no locking
   and the crash-only discipline is easy to state: between any two
   event-loop iterations the shared state (compile cache, residency,
   breakers, journal) is consistent, and a fatal error can simply kill
   the process without a recovery protocol beyond the journal replay
   {!create} performs. Requests are admitted (or shed) the moment their
   frame arrives; one queued request executes per loop iteration, so
   admission keeps rejecting new load with [Overloaded] replies while a
   burst drains instead of buffering it invisibly. Each reply goes to
   the connection that sent the request, looked up by a per-connection
   token (never by file descriptor, which the kernel reuses) so a reply
   whose peer has hung up is simply dropped.

   Lifecycle hardening:

   - startup probes an existing socket file instead of clobbering it: a
     live daemon behind it is a typed [Serve_socket_busy] refusal, a
     dead one's stale file is reclaimed;
   - SIGTERM (or a shutdown frame) triggers a graceful drain — the
     listen socket closes and unlinks immediately so new connects fail
     fast, in-flight requests finish and their replies flush, late
     "run" frames on surviving connections get a typed shed;
   - hostile clients are bounded: a peer holding a frame open past the
     read deadline (slow-loris) or exceeding the write-back cap is sent
     a typed error and dropped; oversized length prefixes never reach
     buffering (see {!Wire.decoder_feed}). *)

module Errors = Cgcm_support.Errors

type conn = {
  token : int;  (* routes the engine's replies back to this peer *)
  fd : Unix.file_descr;
  dec : Wire.decoder;
  mutable out : Bytes.t list;  (* pending write-back, oldest first *)
  mutable out_off : int;  (* progress into the head buffer *)
  mutable out_bytes : int;  (* total buffered write-back *)
  mutable frame_t0 : float option;  (* when the pending partial frame began *)
}

type t = {
  engine : Engine.t;
  socket_path : string;
  listen_fd : Unix.file_descr;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  by_token : (int, conn) Hashtbl.t;
  mutable next_token : int;
  log : string -> unit;
  read_deadline_s : float;
  drain_grace_s : float;
  mutable stopping : bool;
  mutable draining : bool;
  mutable listening : bool;
}

(* A peer that never reads its replies must not buffer the daemon into
   the ground; past this, it is dropped. Generous: dozens of max-size
   frames. *)
let max_conn_out_bytes = 64 * 1024 * 1024

(* Probe an existing socket file: a connect that succeeds means a live
   daemon owns the name; ECONNREFUSED (or a vanished file) means a
   crashed daemon left it behind and the name is reclaimable. *)
let socket_live path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false)

let create ?(engine_config = Engine.default_config) ?journal ?journal_path
    ?(read_deadline_s = 10.0) ?(drain_grace_s = 10.0)
    ?(log = ignore) ~socket_path () =
  (if Sys.file_exists socket_path then
     if socket_live socket_path then
       raise (Errors.Serve_socket_busy { sb_path = socket_path })
     else begin
       log
         (Printf.sprintf "serve: reclaiming stale socket %s (no live daemon)"
            socket_path);
       try Unix.unlink socket_path with Unix.Unix_error _ -> ()
     end);
  (* Recover before binding: a daemon answers its first ping only with
     the journaled caches, warmth and breakers rebuilt. A pre-built
     [journal] handle wins over [journal_path] and is not replayed. *)
  let journal, replayed =
    match (journal, journal_path) with
    | Some j, _ -> (Some j, None)
    | None, Some path ->
      let replayed = Journal.replay ~path in
      let j =
        Journal.create ~path
          ?initial:(Option.map (fun r -> r.Journal.rp_state) replayed)
          ()
      in
      (Some j, replayed)
    | None, None -> (None, None)
  in
  let engine = Engine.create ~config:engine_config ?journal () in
  Option.iter
    (fun rp -> ignore (Engine.recover engine rp : Engine.recovery))
    replayed;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket_path);
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  {
    engine;
    socket_path;
    listen_fd;
    conns = Hashtbl.create 16;
    by_token = Hashtbl.create 16;
    next_token = 0;
    log;
    read_deadline_s;
    drain_grace_s;
    stopping = false;
    draining = false;
    listening = true;
  }

let engine t = t.engine
let stop t = t.stopping <- true
let draining t = t.draining

let drop_conn t c =
  Hashtbl.remove t.conns c.fd;
  Hashtbl.remove t.by_token c.token;
  try Unix.close c.fd with Unix.Unix_error _ -> ()

let send t c (v : Json.t) =
  let b = Wire.encode_frame v in
  c.out <- c.out @ [ b ];
  c.out_bytes <- c.out_bytes + Bytes.length b;
  if c.out_bytes > max_conn_out_bytes then begin
    t.log "serve: write-back cap exceeded, dropping peer";
    drop_conn t c
  end

(* Flush as much buffered write-back as the socket accepts. A dead peer
   (EPIPE) just loses its replies; the daemon carries on. *)
let flush_conn t c =
  try
    let continue = ref true in
    while !continue && c.out <> [] do
      match c.out with
      | [] -> continue := false
      | b :: rest ->
        let n =
          Unix.write c.fd b c.out_off (Bytes.length b - c.out_off)
        in
        c.out_off <- c.out_off + n;
        c.out_bytes <- c.out_bytes - n;
        if c.out_off >= Bytes.length b then begin
          c.out <- rest;
          c.out_off <- 0
        end
    done
  with
  | Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) -> ()
  | Unix.Unix_error _ -> drop_conn t c

(* Deliver a typed last-words error frame, then drop: a misbehaving
   peer learns why instead of seeing a bare hangup. Best-effort — the
   flush takes whatever the socket accepts right now. *)
let send_error_and_drop t c msg =
  send t c (Obj [ ("status", Json.Str "error"); ("error", Json.Str msg) ]);
  if Hashtbl.mem t.conns c.fd then begin
    flush_conn t c;
    drop_conn t c
  end

let stats_json t : Json.t =
  let e = t.engine in
  let s = Engine.stats e in
  let c = Engine.cache_stats e in
  Obj
    ([
       ("status", Json.Str "ok");
       ("received", Json.Int s.Engine.received);
       ("ok", Json.Int s.Engine.ok);
       ("shed", Json.Int s.Engine.shed);
       ("deadline_exceeded", Json.Int s.Engine.deadline_exceeded);
       ("circuit_open", Json.Int s.Engine.circuit_rejected);
       ("errors", Json.Int s.Engine.failed);
       ("degraded", Json.Int s.Engine.degraded_runs);
       ("retries", Json.Int s.Engine.retries);
       ("trips", Json.Int s.Engine.circuit_trips);
       ("pending", Json.Int (Engine.pending e));
       ("cache_hits", Json.Int c.Cache.hits);
       ("cache_misses", Json.Int c.Cache.misses);
       ("cache_hit_rate", Json.Float (Engine.cache_hit_rate e));
       ("warm_bytes", Json.Int (Residency.warm_bytes (Engine.residency e)));
       ( "cross_evictions",
         Json.Int (Residency.cross_evictions (Engine.residency e)) );
       ("draining", Json.Bool t.draining);
     ]
    @ (match Engine.journal e with
      | Some j ->
        let js = Journal.stats j in
        [
          ("journal_appends", Json.Int js.Journal.j_appends);
          ("journal_snapshots", Json.Int js.Journal.j_snapshots);
        ]
      | None -> [])
    @
    match Engine.recovered e with
    | Some r ->
      [
        ("recovered", Json.Bool true);
        ("recovered_records", Json.Int r.Engine.rec_records);
        ("recovered_modules", Json.Int r.Engine.rec_compiled);
        ("rewarmed", Json.Int r.Engine.rec_rewarmed);
        ("recovered_tenants", Json.Int r.Engine.rec_tenants);
        ("journal_torn", Json.Bool r.Engine.rec_torn);
      ]
    | None -> [])

(* Replies travel by token: the peer may have hung up (and its fd been
   reused by a newer peer) by the time the engine answers, in which case
   the reply is dropped — its work still counted in the stats. *)
let deliver_to t token reply =
  match Hashtbl.find_opt t.by_token token with
  | Some c -> send t c (Wire.reply_to_json reply)
  | None -> ()

let handle_frame t c (v : Json.t) =
  match Json.str_field ~default:"run" "op" v with
  | "run" ->
    let req = Wire.request_of_json v in
    let deliver = deliver_to t c.token in
    if t.draining then Engine.shed_draining t.engine req deliver
    else ignore (Engine.submit t.engine req deliver : [ `Queued | `Shed ])
  | "ping" -> send t c (Obj [ ("status", Json.Str "ok") ])
  | "stats" -> send t c (stats_json t)
  | "shutdown" ->
    t.stopping <- true;
    send t c (Obj [ ("status", Json.Str "ok"); ("stopping", Json.Bool true) ])
  | op ->
    send t c
      (Obj
         [
           ("status", Json.Str "error");
           ("error", Json.Str (Printf.sprintf "unknown op %S" op));
         ])

let read_conn t c =
  let buf = Bytes.create 8192 in
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 -> drop_conn t c
  | n -> (
    match
      Wire.decoder_feed c.dec buf n;
      Wire.decoder_drain c.dec
    with
    | frames ->
      (* Arm (or clear) the slow-loris clock: it runs only while a
         partial frame is pending. *)
      c.frame_t0 <-
        (if Wire.decoder_buffered c.dec then
           match c.frame_t0 with
           | Some _ as s -> s
           | None -> Some (Unix.gettimeofday ())
         else None);
      List.iter (handle_frame t c) frames
    | exception Wire.Protocol_error msg ->
      t.log (Printf.sprintf "serve: protocol error, dropping peer: %s" msg);
      send_error_and_drop t c ("cgcm serve: protocol error: " ^ msg))
  | exception
      Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) ->
    ()
  | exception Unix.Unix_error _ -> drop_conn t c
  | exception Wire.Protocol_error msg ->
    t.log (Printf.sprintf "serve: protocol error, dropping peer: %s" msg);
    send_error_and_drop t c ("cgcm serve: protocol error: " ^ msg)

let accept_ready t =
  let continue = ref true in
  while !continue do
    match Unix.accept t.listen_fd with
    | fd, _ ->
      Unix.set_nonblock fd;
      let token = t.next_token in
      t.next_token <- t.next_token + 1;
      let c =
        {
          token;
          fd;
          dec = Wire.decoder ();
          out = [];
          out_off = 0;
          out_bytes = 0;
          frame_t0 = None;
        }
      in
      Hashtbl.replace t.conns fd c;
      Hashtbl.replace t.by_token token c
    | exception
        Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _)
      ->
      continue := false
  done

(* Drop every peer that has held a frame open past the read deadline —
   a slow-loris cannot wedge the loop, it can only own one connection
   slot for [read_deadline_s]. *)
let enforce_read_deadlines t =
  let now = Unix.gettimeofday () in
  let stale =
    Hashtbl.fold
      (fun _ c acc ->
        match c.frame_t0 with
        | Some t0 when now -. t0 > t.read_deadline_s -> c :: acc
        | _ -> acc)
      t.conns []
  in
  List.iter
    (fun c ->
      t.log "serve: read deadline exceeded on a partial frame, dropping peer";
      send_error_and_drop t c
        (Printf.sprintf
           "cgcm serve: read deadline exceeded: partial frame older than %g s"
           t.read_deadline_s))
    stale

let iterate t =
  let conn_fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) t.conns [] in
  let wfds =
    Hashtbl.fold (fun fd c acc -> if c.out <> [] then fd :: acc else acc)
      t.conns []
  in
  let rfds_in = if t.listening then t.listen_fd :: conn_fds else conn_fds in
  (* Block only when idle; with work queued, poll and keep executing. *)
  let timeout = if Engine.pending t.engine > 0 then 0.0 else 0.05 in
  let rfds, wready, _ =
    try Unix.select rfds_in wfds [] timeout
    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  if t.listening && List.mem t.listen_fd rfds then accept_ready t;
  List.iter
    (fun fd ->
      if fd <> t.listen_fd then
        match Hashtbl.find_opt t.conns fd with
        | Some c -> read_conn t c
        | None -> ())
    rfds;
  enforce_read_deadlines t;
  ignore (Engine.step t.engine : bool);
  List.iter
    (fun fd ->
      match Hashtbl.find_opt t.conns fd with
      | Some c -> flush_conn t c
      | None -> ())
    (wready @ conn_fds)

let pending_writes t =
  Hashtbl.fold (fun _ c acc -> acc || c.out <> []) t.conns false

(* Stop accepting: close and unlink the listen socket so new connects
   fail fast (ENOENT) the moment the drain begins, rather than sitting
   in a backlog that will never be served. *)
let close_listener t =
  if t.listening then begin
    t.listening <- false;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    try Unix.unlink t.socket_path with Unix.Unix_error _ -> ()
  end

(* Run until asked to stop, then drain gracefully: queued requests
   still execute and their replies flush before teardown, while frames
   that arrive during the drain are shed with a typed reply. *)
let run t =
  while not t.stopping do
    iterate t
  done;
  t.draining <- true;
  close_listener t;
  t.log "serve: draining (in-flight requests finish, new work is shed)";
  let deadline = Unix.gettimeofday () +. t.drain_grace_s in
  while
    (Engine.pending t.engine > 0 || pending_writes t)
    && Unix.gettimeofday () < deadline
  do
    iterate t
  done;
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    t.conns;
  Hashtbl.reset t.conns;
  Hashtbl.reset t.by_token;
  close_listener t;
  let residual = Engine.shutdown t.engine in
  let line = Engine.final_line t.engine ~residual in
  t.log line;
  (line, residual)
