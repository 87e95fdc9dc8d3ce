(* A [cgcm serve] daemon forked from the benchmark process, in the
   command's default configuration with a journal armed. Fork before
   any domain exists: OCaml 5 forbids forking afterwards. *)

module Serve = Cgcm_serve

type t = { pid : int; socket : string; journal : string; stats_file : string; mutable alive : bool }

type final = {
  journal_appends : int;
  journal_fsyncs : int;
  rss_growth_mb : float;  (* peak resident set over the one at fork *)
  residual_blocks : int;  (* device blocks live at teardown; 0 = leak-free *)
}

(* [cgcm serve]'s defaults: the CLI only overrides the retry backoff. *)
let engine_config = { Serve.Engine.default_config with Serve.Engine.backoff_ms = 1.0 }

let remove path = try Sys.remove path with Sys_error _ -> ()

let serve_child ~socket ~journal ~stats_file =
  let base_mb = Host.fork_base_mb () in
  let code =
    try
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let server =
        Serve.Server.create ~engine_config ~journal_path:journal ~socket_path:socket ()
      in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Serve.Server.stop server));
      let _line, residual = Serve.Server.run server in
      let j =
        match Serve.Engine.journal (Serve.Server.engine server) with
        | Some j -> Serve.Journal.stats j
        | None -> { Serve.Journal.j_appends = 0; j_snapshots = 0; j_fsyncs = 0 }
      in
      Out_channel.with_open_text stats_file (fun oc ->
          Printf.fprintf oc "%d %d %.17g %d\n" j.Serve.Journal.j_appends j.Serve.Journal.j_fsyncs
            (Host.rss_growth_mb ~base_mb) residual);
      if residual = 0 then 0 else 1
    with e ->
      prerr_endline ("perfbench: serve daemon failed: " ^ Printexc.to_string e);
      2
  in
  Unix._exit code

let spawn ~dir ~tag =
  let socket = Filename.concat dir (tag ^ ".sock") in
  let journal = Filename.concat dir (tag ^ ".journal") in
  let stats_file = Filename.concat dir (tag ^ ".final") in
  List.iter remove [ socket; journal; stats_file ];
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 -> serve_child ~socket ~journal ~stats_file
  | pid -> { pid; socket; journal; stats_file; alive = true }

(* Poll until the daemon answers a ping; false if it died first or the
   timeout lapsed. *)
let wait_ready ?(timeout_s = 30.0) t =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if Serve.Client.ping ~socket_path:t.socket then true
    else
      match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.0001;
        go ()
      | 0, _ -> false
      | _ ->
        t.alive <- false;
        false
  in
  go ()

let kill t =
  if t.alive then begin
    t.alive <- false;
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
    List.iter remove [ t.socket; t.journal; t.stats_file ]
  end

(* Ask for a graceful shutdown and wait for the process to exit. *)
let stop t : (final, string) result =
  if not t.alive then Error "daemon already gone"
  else begin
    let acked = Serve.Client.shutdown ~socket_path:t.socket in
    if not acked then kill t;
    let status =
      if t.alive then begin
        t.alive <- false;
        snd (Unix.waitpid [] t.pid)
      end
      else Unix.WSIGNALED Sys.sigkill
    in
    match status with
    | Unix.WEXITED (0 | 1) -> (
      match In_channel.with_open_text t.stats_file input_line with
      | line ->
        List.iter remove [ t.stats_file; t.journal ];
        Scanf.sscanf line "%d %d %f %d" (fun a f rss r ->
            Ok { journal_appends = a; journal_fsyncs = f; rss_growth_mb = rss; residual_blocks = r })
      | exception (Sys_error _ | End_of_file) -> Error "daemon left no final stats")
    | Unix.WEXITED n -> Error (Printf.sprintf "daemon exited with code %d" n)
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> Error "daemon was killed"
  end
