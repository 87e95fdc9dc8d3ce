(* perfbench: the repository's benchmark. See README.md beside this file.

   main.exe --workload W --seed N --seconds S --trace 0|1
   main.exe --record-expected

   Run from the root of the repository. The last line of standard output
   is one JSON object: correct, attempted, failed and metrics — the
   end-to-end metrics untraced, the per-layer metrics traced. *)

open Perfbench
module Json = Cgcm_serve.Json
module Wire = Cgcm_serve.Wire
module Registry = Cgcm_progs.Registry
module Interp = Cgcm_interp.Interp

let out_dir = ".bench_out"
let expected_path = "perfbench/expected.tsv"
let workloads = [ "suite-explicit"; "suite-paged"; "serve-mixed" ]
let setup_repeats = 5

(* serve-mixed: requests in the one timed pass of a daemon lifetime.
   The daemon slows down as it serves (its per-request work grows with
   the never-seen sources it has compiled), so a lifetime's figures
   depend on how many requests it has served: the count is fixed, and a
   run takes the median over several lifetimes. *)
let serve_pass_size = 320

(* The timed pass runs in this many consecutive parts with a calibration
   mark before each and after the last, so each part's time is scaled by
   the host speed of its own moment. *)
let serve_parts = 4

(* Daemon lifetimes per run, from [seconds] alone: at least four, so the
   p99 pooled over them has 1280 samples and ten beyond it. *)
let serve_lifetimes seconds = max 4 (int_of_float (seconds /. 2.0))

(* Calibration tries at each serve pass boundary. *)
let serve_calib_tries = 21

(* Compiles per served (program, mode) pair after each daemon lifetime,
   for compile_ms_p50. *)
let serve_compile_reps = 4

let now = Unix.gettimeofday

(* --- failure accounting ------------------------------------------- *)

let attempted = ref 0
let failed = ref 0
let failure_notes = ref []

let fail why =
  incr failed;
  if List.length !failure_notes < 20 then failure_notes := why :: !failure_notes;
  prerr_endline ("perfbench: FAIL " ^ why)

(* --- suite workloads ---------------------------------------------- *)

let suite_configs = function
  | "suite-explicit" -> Ops.[ explicit Seq; explicit Unopt; explicit Opt; explicit Ie ]
  | _ -> Ops.[ paged Unopt; paged Opt ]

(* Compiles per timed operation: a compile takes about a millisecond,
   so the fastest of a few is its cost with the least noise. *)
let compile_reps = 6

type op = { id : int; prog : Registry.program; config : Ops.config }

let suite_ops configs =
  List.concat_map (fun p -> List.map (fun c -> (p, c)) configs) Registry.all
  |> List.mapi (fun id (prog, config) -> { id; prog; config })

(* What one execution of an operation reports, wherever it ran. *)
type measured = {
  compile_s : float;
  run_s : float;
  exit_code : int;
  output : string;
  leak_free : bool;
  facts : string;
  wall : float;  (* simulated cycles *)
  rss_mb : float;  (* peak memory growth of the forked child that ran it *)
  marks : (float * float) list;  (* calibration samples taken around it *)
}

let measure (o : Ops.outcome) =
  let r = o.Ops.result in
  {
    compile_s = o.Ops.compile_s;
    run_s = o.Ops.run_s;
    exit_code = Int64.to_int r.Interp.exit_code;
    output = r.Interp.output;
    leak_free = Ops.leak_free r;
    facts = Ops.facts o;
    wall = r.Interp.wall;
    rss_mb = nan;
    marks = [];
  }

(* Check one execution: output and exit code against the expected
   table, a zero leak report, and the determinism facts. *)
let check ~expected ~facts name config (m : (measured, string) result) =
  incr attempted;
  let cfg = Ops.config_name config in
  match m with
  | Error e ->
    fail (Printf.sprintf "%s/%s raised %s" name cfg e);
    None
  | Ok m ->
    (match Expected.check expected ~program:name ~config:cfg ~exit_code:m.exit_code ~output:m.output with
    | Some why -> fail why
    | None -> if not m.leak_free then fail (Printf.sprintf "%s/%s: leak report not zero" name cfg));
    Facts.note facts ~key:(name ^ "/" ^ cfg) m.facts;
    Some m

(* Execute and check in this process, adding to [acc]'s layer counts. *)
let run_checked ?acc ~traced ~expected ~facts name config source =
  let o =
    match Ops.execute ~traced config source with
    | o ->
      Option.iter (fun a -> Layers.add_compile a o.Ops.compiled; Layers.add_run a o.Ops.result) acc;
      Ok (measure o)
    | exception e -> Error (Printexc.to_string e)
  in
  check ~expected ~facts name config o

(* A short operation executes again, up to [op_reps] times in all,
   until [op_budget_s] of compile-and-run has passed; it reports its
   fastest compile and fastest run. Long operations execute once. *)
let op_reps = 3
let op_budget_s = 0.25

let execute_fastest op =
  let base_mb = Host.fork_base_mb () in
  let once () = measure (Ops.execute ~compile_reps ~traced:false op.config op.prog.Registry.source) in
  let rec go n spent (best : measured) =
    if n >= op_reps || spent >= op_budget_s then best
    else
      let m = once () in
      if m.facts <> best.facts || m.output <> best.output then
        failwith "a repeated execution differs from the first";
      go (n + 1) (spent +. m.compile_s +. m.run_s)
        { best with compile_s = Float.min best.compile_s m.compile_s; run_s = Float.min best.run_s m.run_s }
  in
  let before = Calib.timed_sample () in
  let first = once () in
  let best = go 1 (first.compile_s +. first.run_s) first in
  { best with marks = [ before; Calib.timed_sample () ]; rss_mb = Host.rss_growth_mb ~base_mb }

(* A timed execution runs in a child forked from the same parent state,
   so neither its time nor its peak memory depends on the operations
   before it; the memory counted is the child's growth over the parent
   state it started from. The child calibrates just before and after the operation,
   on the processor it runs on. *)
let run_isolated ~expected ~facts op =
  Isolate.run (fun () -> execute_fastest op) |> check ~expected ~facts op.prog.Registry.name op.config

(* Run [f] after a calibration mark; return when it started and ended.
   Host speed factors come from the marks once the run is over. *)
let marked tl f =
  Calib.mark tl;
  let t0 = now () in
  let v = f () in
  (t0, now (), v)

(* [f] repeated [n] times between calibration marks: the median of its
   host times at nominal host speed, and its first result. *)
let median_scaled n f =
  let tl = Calib.timeline () in
  let runs = List.init n (fun _ -> marked tl f) in
  Calib.mark tl;
  let t = Summary.median (List.map (fun (t0, t1, _) -> Calib.factor tl ~t0 ~t1 *. (t1 -. t0)) runs) in
  let _, _, v = List.hd runs in
  (t, v)

(* Set-up: the expected table, the operation list, and a warm-up compile
   of every operation, repeated; the median time is reported. *)
let suite_setup configs =
  median_scaled setup_repeats (fun () ->
      let expected = Expected.load expected_path in
      let ops = suite_ops configs in
      List.iter (fun op -> ignore (Ops.compile ~traced:false op.config op.prog.Registry.source)) ops;
      (expected, ops))

let fig4 ~seq_wall ~opt_wall names =
  Summary.geomean
    (List.filter_map
       (fun n ->
         match (seq_wall n, opt_wall n) with Some s, Some o -> Some (s /. o) | _ -> None)
       names)

(* A pass takes 10 to 20 seconds; the count depends on [seconds] alone,
   so every run of a setting takes the fastest of as many executions. *)
let suite_passes seconds = max 2 (int_of_float (seconds /. 10.0))

(* Passes over the operations, each in its own seed-fixed order. Every
   operation reports the fastest of its executions at nominal host
   speed: its executions fall at different moments of the run, and
   contention only adds time. *)
let suite_untraced ~workload ~seed ~seconds ~facts =
  let configs = suite_configs workload in
  let setup_s, (expected, ops) = suite_setup configs in
  (* The children start from a compact parent heap. *)
  Gc.compact ();
  let tl = Calib.timeline () in
  let passes = suite_passes seconds in
  let runs =
    List.concat_map
      (fun pass ->
        List.map
          (fun op ->
            let m = run_isolated ~expected ~facts op in
            Option.iter (fun m -> Calib.add tl m.marks) m;
            (op, m))
          (Ops.order ~stream:pass ~seed ops))
      (List.init passes Fun.id)
  in
  let best = Hashtbl.create 128 in
  let factors = ref [] and raw = ref 0.0 in
  List.iter
    (fun (op, m) ->
      Option.iter
        (fun m ->
          let t0 = fst (List.hd m.marks) and t1 = fst (List.nth m.marks 1) in
          let k = Calib.factor tl ~t0 ~t1 in
          factors := k :: !factors;
          raw := !raw +. m.compile_s +. m.run_s;
          let c, l, _ = Option.value (Hashtbl.find_opt best op.id) ~default:(infinity, infinity, m) in
          Hashtbl.replace best op.id
            (Float.min c (k *. m.compile_s), Float.min l (k *. (m.compile_s +. m.run_s)), m))
        m)
    runs;
  let wall_of config name =
    List.find_map
      (fun op ->
        if op.prog.Registry.name = name && op.config = config then
          Option.map (fun (_, _, m) -> m.wall) (Hashtbl.find_opt best op.id)
        else None)
      ops
  in
  let names = List.map (fun p -> p.Registry.name) Registry.all in
  let opt_wall = wall_of (List.find (fun c -> c.Ops.exec = Ops.Opt) configs) in
  let seq_wall =
    if List.exists (fun c -> c.Ops.exec = Ops.Seq) configs then wall_of (Ops.explicit Ops.Seq)
    else begin
      (* The paged suite runs no sequential baseline; take it here,
         after timing, for the Figure 4 ratio. *)
      let walls =
        List.filter_map
          (fun p ->
            run_checked ~traced:false ~expected ~facts p.Registry.name (Ops.explicit Ops.Seq)
              p.Registry.source
            |> Option.map (fun m -> (p.Registry.name, m.wall)))
          Registry.all
      in
      fun n -> List.assoc_opt n walls
    end
  in
  let rows = Hashtbl.fold (fun _ v acc -> v :: acc) best [] in
  let lat = List.map (fun (_, l, _) -> 1000.0 *. l) rows in
  let compile = List.map (fun (c, _, _) -> 1000.0 *. c) rows in
  let suite_s = Summary.sum lat /. 1000.0 in
  let p50 = Summary.percentile 50.0 lat and p99 = Summary.tail lat in
  let c50 = Summary.percentile 50.0 compile in
  Printf.printf
    "%d passes over %d operations; each operation counts its fastest execution at nominal host \
     speed\n\
     latency p50 %.3f ms over %d operations, tail (p%.1f) over %d (%d beyond); compile_ms_p50 \
     over %d \
     operations, fastest of %d compiles each\n\
     as measured: %.3f s of compile-and-run per pass; host speed factor median %.3f (min %.3f, \
     max %.3f)\n\
     serve_rps: does not apply (no requests are served); serve_p50_ms and serve_p99_ms below are \
     the median and tail of the operations' times, whose sum is suite_s\n"
    passes (List.length ops) p50.value p50.samples p99.pct p99.samples p99.beyond c50.samples
    (compile_reps * passes)
    (!raw /. float_of_int passes) (Summary.median !factors)
    (List.fold_left Float.min infinity !factors)
    (List.fold_left Float.max neg_infinity !factors);
  [
    ("setup_s", setup_s, "s");
    ("suite_s", suite_s, "s");
    ("compile_ms_p50", c50.value, "ms");
    ("sim_cycles_geomean", Summary.geomean (List.filter_map opt_wall names), "cycles");
    ("fig4_speedup_geomean", fig4 ~seq_wall ~opt_wall names, "x");
    ("serve_p50_ms", p50.value, "ms");
    ("serve_p99_ms", p99.value, "ms");
    ("peak_rss_mb", List.fold_left (fun acc (_, _, m) -> Float.max acc m.rss_mb) 0.0 rows, "MB");
  ]

(* One pass in which every operation runs untraced and traced back to
   back — alternating which goes first — so the tracing overhead is
   measured at the same moment of the run as the work it traces. *)
let suite_traced ~workload ~seed ~facts =
  let configs = suite_configs workload in
  let _, (expected, ops) = suite_setup configs in
  let acc = Layers.create () in
  let untraced_s = ref 0.0 and traced_s = ref 0.0 in
  let latency = function Some m -> m.compile_s +. m.run_s | None -> 0.0 in
  let run ~traced ?acc op =
    Span.in_op op.id (fun () ->
        Span.with_ "bench.op" (fun () ->
            run_checked ?acc ~traced ~expected ~facts op.prog.Registry.name op.config
              op.prog.Registry.source))
  in
  let traced_op op =
    Span.enabled := true;
    let m = run ~traced:true ~acc op in
    Span.enabled := false;
    traced_s := !traced_s +. latency m
  in
  let untraced_op op = untraced_s := !untraced_s +. latency (run ~traced:false op) in
  List.iteri
    (fun i op ->
      if i mod 2 = 0 then (untraced_op op; traced_op op) else (traced_op op; untraced_op op))
    (Ops.order ~seed ops);
  let overhead_pct = 100.0 *. (!traced_s -. !untraced_s) /. !untraced_s in
  Printf.printf "trace overhead: traced %.3f s, untraced %.3f s over the same operations (%+.2f%%)\n"
    !traced_s !untraced_s overhead_pct;
  (* The staged compile must print the same IR as Pipeline.compile, so
     the layer timings describe the real pipeline. *)
  List.iter
    (fun op ->
      if not (Ops.staged_matches_pipeline op.config op.prog.Registry.source) then
        fail
          (Printf.sprintf "%s/%s: staged compile differs from Pipeline.compile" op.prog.Registry.name
             (Ops.config_name op.config)))
    ops;
  Printf.printf "staged compile matches Pipeline.compile on %d operations\n" (List.length ops);
  Layers.metrics ~spans:(Span.spans ()) ~acc ~serve:None ~trace_overhead_pct:(Some overhead_pct)

(* --- serve-mixed --------------------------------------------------- *)

let current_daemon : Daemon.t option ref = ref None

let spawn_daemon tag =
  let d = Daemon.spawn ~dir:out_dir ~tag in
  current_daemon := Some d;
  if not (Daemon.wait_ready d) then begin
    Daemon.kill d;
    failwith "serve daemon did not answer its first ping"
  end;
  d

let check_reply ~expected (req : Traffic.req) (reply : Wire.reply) =
  incr attempted;
  let mode = req.Traffic.wire.Wire.rq_mode in
  match reply.Wire.rp_status with
  | Wire.Ok -> (
    match
      Expected.check expected ~program:req.Traffic.cls ~config:mode
        ~exit_code:reply.Wire.rp_exit_code ~output:reply.Wire.rp_output
    with
    | Some why -> fail ("request " ^ string_of_int req.Traffic.wire.Wire.rq_id ^ ": " ^ why)
    | None -> ())
  | st ->
    fail
      (Printf.sprintf "request %d: %s %s" req.Traffic.wire.Wire.rq_id (Wire.status_name st)
         reply.Wire.rp_error)

(* The same requests through an in-process engine, one at a time, with
   spans around the wire decode, admission, execution and reply
   encode. *)
let engine_replay ~expected (reqs : Traffic.req list) =
  let module E = Cgcm_serve.Engine in
  let path = Filename.concat out_dir "replay.journal" in
  Daemon.remove path;
  let journal = Cgcm_serve.Journal.create ~path () in
  let e = E.create ~config:Daemon.engine_config ~journal () in
  List.iter
    (fun (r : Traffic.req) ->
      Span.in_op r.Traffic.wire.Wire.rq_id (fun () ->
          let frame = Wire.encode_frame (Wire.request_to_json r.Traffic.wire) in
          let req =
            Span.with_ "serve.decode" (fun () ->
                let d = Wire.decoder () in
                Wire.decoder_feed d frame (Bytes.length frame);
                match Wire.decoder_drain d with
                | [ v ] -> Wire.request_of_json v
                | _ -> failwith "replay: frame did not decode to one request")
          in
          let reply = ref None in
          ignore (Span.with_ "serve.submit" (fun () -> E.submit e req (fun rp -> reply := Some rp)));
          ignore (Span.with_ "serve.step" (fun () -> E.step e));
          match !reply with
          | Some rp ->
            ignore (Span.with_ "serve.encode" (fun () -> Wire.encode_frame (Wire.reply_to_json rp)));
            check_reply ~expected r rp
          | None ->
            incr attempted;
            fail "replay: engine produced no reply"))
    reqs;
  let residual = E.shutdown e in
  Cgcm_serve.Journal.close journal;
  Daemon.remove path;
  if residual <> 0 then fail (Printf.sprintf "replay engine: %d device blocks leaked" residual)

(* One daemon lifetime: fork a daemon, warm its cache with the hot set,
   drive one timed pass through the closed loop on persistent
   connections, read its stats, shut it down. Its set-up is the time
   until the timed pass can start: the fork until the first ping
   answers, plus the warm-up. *)
type lifetime = {
  lt_setup : float * float * float;  (* start, end, set-up time without the pinning *)
  lt_parts : (float * float * float list) list;  (* start, end, latencies (ms) *)
  lt_compile_ms : ((string * string) * float) list;  (* per served pair *)
  lt_stats : Json.t;
  lt_final : Daemon.final option;
}

(* Every served (program, mode) pair. *)
let serve_pairs =
  List.concat_map (fun (cls, _) -> List.map (fun mode -> (cls, mode)) Traffic.modes) Traffic.sources

(* Each pair's compile time in ms, once the daemon has stopped: like a
   suite operation's, in a forked child, the fastest of
   [serve_compile_reps], at the host speed the child measures around
   it. *)
let compile_pairs () =
  let timed () =
    let before = Calib.timed_sample () in
    let times =
      List.map
        (fun (cls, mode) ->
          let c = Ops.config_of_name mode in
          fst (Clock.fastest serve_compile_reps (fun () -> Ops.compile ~traced:false c (List.assoc cls Traffic.sources))))
        serve_pairs
    in
    (times, [ before; Calib.timed_sample () ])
  in
  match Isolate.run timed with
  | Ok (times, marks) ->
    let tl = Calib.timeline () in
    Calib.add tl marks;
    let k = Calib.factor tl ~t0:(fst (List.hd marks)) ~t1:(fst (List.nth marks 1)) in
    List.combine serve_pairs (List.map (fun t -> 1000.0 *. k *. t) times)
  | Error e -> failwith ("serve compile timing: " ^ e)

(* A calibration mark for the daemon's work: taken on the daemon's
   processor, in a forked child, while the daemon is idle between parts. *)
let daemon_mark ~placement tl =
  match placement with
  | None -> Calib.mark ~tries:serve_calib_tries tl
  | Some p -> (
    match
      Isolate.run (fun () ->
          if not (Pin.pin (Unix.getpid ()) [ p.Pin.daemon ]) then failwith "pinning failed";
          Calib.timed_sample ~tries:serve_calib_tries ())
    with
    | Ok m -> Calib.add tl [ m ]
    | Error e -> failwith ("calibration on the daemon's processor: " ^ e))

let serve_lifetime ~seed ~index ~tl ~placement ~clients ~on_reply ~register =
  let s0 = now () in
  let d = spawn_daemon (Printf.sprintf "serve%d" index) in
  let s1 = now () in
  Fun.protect
    ~finally:(fun () ->
      Daemon.kill d;
      current_daemon := None)
    (fun () ->
      Option.iter
        (fun p ->
          if not (Pin.pin d.Daemon.pid [ p.Pin.daemon ]) then failwith "could not pin the serve daemon")
        placement;
      let loop = Closed_loop.create ~connect:(Closed_loop.connect_unix d.Daemon.socket) ~clients in
      let drive ~timed reqs =
        List.iter register reqs;
        let lat = ref [] in
        Closed_loop.run_pass loop
          ~on_reply:(fun s -> lat := on_reply ~timed s :: !lat)
          (List.map (fun r -> r.Traffic.wire) reqs);
        !lat
      in
      let w0 = now () in
      ignore (drive ~timed:false (Traffic.warmup ~index));
      let w1 = now () in
      let reqs = Array.of_list (Traffic.pass ~seed ~pass:index ~size:serve_pass_size) in
      let part_size = serve_pass_size / serve_parts in
      let parts =
        List.init serve_parts (fun i ->
            daemon_mark ~placement tl;
            let t0 = now () in
            let lat = drive ~timed:true (Array.to_list (Array.sub reqs (i * part_size) part_size)) in
            (t0, now (), lat))
      in
      daemon_mark ~placement tl;
      Closed_loop.close loop;
      let stats = Cgcm_serve.Client.stats ~socket_path:d.Daemon.socket in
      let final =
        match Daemon.stop d with
        | Ok f ->
          if f.Daemon.residual_blocks <> 0 then
            fail (Printf.sprintf "serve daemon: %d device blocks leaked" f.Daemon.residual_blocks);
          Some f
        | Error e ->
          fail ("serve daemon: " ^ e);
          None
      in
      {
        lt_setup = (s0, w1, s1 -. s0 +. (w1 -. w0));
        lt_parts = parts;
        lt_compile_ms = compile_pairs ();
        lt_stats = stats;
        lt_final = final;
      })

let serve_run ~seed ~seconds ~traced ~facts =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let expected = Expected.load expected_path in
  let by_id = Hashtbl.create 4096 in
  let exec = ref [] and overhead = ref [] and misses = ref [] in
  (* Every reply is checked and every miss noted (a traced run replays
     them); only the timed pass's replies give latencies and spans. *)
  let on_reply ~timed (s : Closed_loop.sample) =
    let req = Hashtbl.find by_id s.Closed_loop.request.Wire.rq_id in
    let rp = s.Closed_loop.reply in
    check_reply ~expected req rp;
    let ms = 1000.0 *. s.Closed_loop.latency_s in
    if rp.Wire.rp_cache = "miss" then misses := req :: !misses;
    if timed then begin
      exec := rp.Wire.rp_wall_ms :: !exec;
      overhead := (ms -. rp.Wire.rp_wall_ms) :: !overhead
    end;
    if timed && traced then begin
      let op = rp.Wire.rp_id and t0 = s.Closed_loop.started in
      let t1 = t0 +. s.Closed_loop.latency_s in
      let parent = Span.record ~op "client.request" t0 t1 in
      ignore (Span.record ~parent ~op "wire.encode" t0 (t0 +. s.Closed_loop.encode_s));
      ignore (Span.record ~parent ~op "wire.decode" (t1 -. s.Closed_loop.decode_s) t1)
    end;
    ms
  in
  let register r = Hashtbl.replace by_id r.Traffic.wire.Wire.rq_id r in
  let clients = Domain.recommended_domain_count () in
  let tl = Calib.timeline () in
  let placement = Pin.place () in
  Span.enabled := traced;
  let lifetimes =
    Fun.protect
      ~finally:(fun () -> Option.iter Pin.release placement)
      (fun () ->
        List.init (serve_lifetimes seconds) (fun index ->
            (* Every daemon starts from the same compact parent heap. *)
            Gc.compact ();
            serve_lifetime ~seed ~index ~tl ~placement ~clients ~on_reply ~register))
  in
  Span.enabled := false;
  Hashtbl.reset by_id;
  Printf.printf "placement: %s\n"
    (match placement with
    | Some p ->
      Printf.sprintf "clients on processors %s, each daemon on processor %d and calibrated there"
        (String.concat "," (List.map string_of_int p.Pin.clients))
        p.Pin.daemon
    | None -> "not pinned (fewer than two processors, or no taskset); calibrated in the client");
  (* A served (program, mode) pair's compile time is the median over
     daemon lifetimes of its compile after each lifetime (see
     [compile_pairs]), so the figure spans the run's host-speed phases.
     The median is then over the pairs. *)
  let compile_ms =
    List.map
      (fun pair -> Summary.median (List.map (fun lt -> List.assoc pair lt.lt_compile_ms) lifetimes))
      serve_pairs
  in
  (* Traced: every compile the daemons performed, in-process, for the
     front-end and pass layers; then each hot program under every served
     mode. *)
  let acc = Layers.create () in
  Span.enabled := traced;
  if traced then
    List.iter
      (fun (r : Traffic.req) ->
        let c = Ops.config_of_name r.Traffic.wire.Wire.rq_mode in
        Layers.add_compile acc (Ops.compile ~traced c r.Traffic.wire.Wire.rq_source))
      (List.rev !misses);
  let runs =
    List.concat_map
      (fun (cls, src) ->
        List.filter_map
          (fun mode ->
            let c = Ops.config_of_name mode in
            run_checked ~acc ~traced ~expected ~facts cls c src
            |> Option.map (fun m -> ((cls, mode), m.wall)))
          Traffic.modes)
      Traffic.sources
  in
  if traced then engine_replay ~expected (Traffic.pass ~seed ~pass:0 ~size:serve_pass_size);
  Span.enabled := false;
  let classes = List.map fst Traffic.sources in
  let wall mode cls = List.assoc_opt (cls, mode) runs in
  (* Each part's time and latencies are scaled by its host speed factor.
     The pass time and memory are medians over lifetimes; the p99 pools
     the latencies of every lifetime. *)
  let scored =
    List.mapi
      (fun index lt ->
        let parts = List.map (fun (t0, t1, l) -> (Calib.factor tl ~t0 ~t1, t1 -. t0, l)) lt.lt_parts in
        let raw_lat = List.concat_map (fun (_, _, l) -> l) parts in
        let raw_wall = Summary.sum (List.map (fun (_, w, _) -> w) parts) in
        Printf.printf
          "daemon %d: %d timed requests after %d warm-up ones; as measured %.1f req/s, p50 %.3f ms, \
           max %.3f ms; host speed factors %s\n"
          index (List.length raw_lat) (List.length (Traffic.warmup ~index))
          (float_of_int (List.length raw_lat) /. raw_wall)
          (Summary.median raw_lat)
          (List.fold_left Float.max 0.0 raw_lat)
          (String.concat " " (List.map (fun (k, _, _) -> Printf.sprintf "%.2f" k) parts));
        ( Summary.sum (List.map (fun (k, w, _) -> k *. w) parts),
          List.concat_map (fun (k, _, l) -> List.map (( *. ) k) l) parts,
          Option.fold ~none:nan ~some:(fun f -> f.Daemon.rss_growth_mb) lt.lt_final ))
      lifetimes
  in
  let med f = Summary.median (List.map f scored) in
  let setup_s =
    Summary.median
      (List.map (fun { lt_setup = t0, t1, s; _ } -> Calib.factor tl ~t0 ~t1 *. s) lifetimes)
  in
  let suite_s = med (fun (w, _, _) -> w) in
  let lat = List.concat_map (fun (_, l, _) -> l) scored in
  let p50 = Summary.percentile 50.0 lat and p99 = Summary.percentile 99.0 lat in
  let c50 = Summary.midpoint_median compile_ms in
  Printf.printf
    "%d daemons, %d clients; p50 %.3f ms and p99 over %d requests (%d beyond the p99); serve_rps \
     %.2f 1/s (not gated: %d requests over suite_s, the same measurement); compile_ms_p50 over %d \
     (program, mode) pairs (the mean of the middle two), each the median over daemons of the fastest of %d compiles in a forked child\n"
    (List.length lifetimes) clients p50.Summary.value p99.Summary.samples p99.Summary.beyond
    (float_of_int serve_pass_size /. suite_s)
    serve_pass_size (List.length compile_ms) serve_compile_reps;
  let sum_stat name =
    List.fold_left (fun a lt -> a + Json.int_field ~default:0 name lt.lt_stats) 0 lifetimes
  in
  let sum_final f =
    List.fold_left (fun a lt -> a + Option.fold ~none:0 ~some:f lt.lt_final) 0 lifetimes
  in
  let hits = sum_stat "cache_hits" and misses_n = sum_stat "cache_misses" in
  let e2e =
    [
      ("setup_s", setup_s, "s");
      ("suite_s", suite_s, "s");
      ("compile_ms_p50", c50, "ms");
      ("sim_cycles_geomean", Summary.geomean (List.filter_map (wall "opt") classes), "cycles");
      ("fig4_speedup_geomean", fig4 ~seq_wall:(wall "seq") ~opt_wall:(wall "opt") classes, "x");
      ("serve_p50_ms", p50.Summary.value, "ms");
      ("serve_p99_ms", p99.Summary.value, "ms");
      ("peak_rss_mb", med (fun (_, _, m) -> m), "MB");
    ]
  in
  let serve =
    {
      Layers.exec_ms_p50 = Summary.median !exec;
      overhead_ms_p50 = Summary.median !overhead;
      cache_hit_ratio = float_of_int hits /. float_of_int (max 1 (hits + misses_n));
      compiles = misses_n;
      journal_appends = sum_final (fun f -> f.Daemon.journal_appends);
      journal_fsyncs = sum_final (fun f -> f.Daemon.journal_fsyncs);
    }
  in
  if traced then Layers.metrics ~spans:(Span.spans ()) ~acc ~serve:(Some serve) ~trace_overhead_pct:None
  else (e2e, [])

(* --- recording the expected-output table -------------------------- *)

let record_expected () =
  let configs = List.map Ops.config_of_name [ "seq"; "unopt"; "opt"; "ie"; "unopt+paged"; "opt+paged" ] in
  let classes =
    List.map (fun p -> (p.Registry.name, p.Registry.source)) Registry.all
    @ List.filter (fun (c, _) -> Registry.find c = None) Traffic.sources
  in
  let rows =
    List.concat_map
      (fun (name, source) ->
        let rows =
          List.map
            (fun c ->
              let exec =
                match c.Ops.exec with
                | Ops.Seq -> Cgcm_core.Pipeline.Sequential
                | Ops.Unopt -> Cgcm_core.Pipeline.Cgcm_unoptimized
                | Ops.Opt -> Cgcm_core.Pipeline.Cgcm_optimized
                | Ops.Ie -> Cgcm_core.Pipeline.Inspector_executor_exec
              in
              let _, r = Cgcm_core.Pipeline.run ~backend:c.Ops.backend exec source in
              ( (name, Ops.config_name c),
                { Expected.exit_code = Int64.to_int r.Interp.exit_code; output = r.Interp.output } ))
            configs
        in
        (match rows with
        | (_, first) :: rest ->
          if List.exists (fun (_, e) -> e <> first) rest then
            failwith (name ^ ": configurations disagree; refusing to record")
        | [] -> ());
        Printf.eprintf "recorded %s\n%!" name;
        rows)
      classes
  in
  Expected.save expected_path rows;
  Printf.printf "wrote %d rows to %s\n" (List.length rows) expected_path

(* --- main ----------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload suite-explicit|suite-paged|serve-mixed --seed N --seconds S \
     --trace 0|1\n       main.exe --record-expected";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let record = ref false in
  let rec go = function
    | "--workload" :: w :: rest -> workload := w; go rest
    | "--seed" :: s :: rest -> seed := int_of_string s; go rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; go rest
    | "--record-expected" :: rest -> record := true; go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if (not !record) && not (List.mem !workload workloads) then usage ();
  (!record, !workload, !seed, !seconds, !trace)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let metric_json rows =
  Json.Obj
    (List.map (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str u) ])) rows)

let () =
  let record, workload, seed, seconds, trace = parse_args () in
  if not (Sys.file_exists expected_path) then begin
    prerr_endline "perfbench: run from the root of the repository (perfbench/expected.tsv not found)";
    exit 2
  end;
  if record then (record_expected (); exit 0);
  mkdir_p out_dir;
  (* Hard stop well inside the 180 s a run may take. *)
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         Option.iter Daemon.kill !current_daemon;
         Option.iter (fun pid -> try Unix.kill pid Sys.sigkill; ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()) !Isolate.current;
         prerr_endline "perfbench: run exceeded its time limit";
         exit 3));
  ignore (Unix.alarm 170);
  let fingerprint = Host.fingerprint () in
  Printf.printf "host: %s\n"
    (Json.print (Json.Obj (fingerprint @ [ ("workload", Json.Str workload); ("seed", Json.Int seed) ])));
  let facts = Facts.create () in
  let metrics, na =
    match (workload, trace) with
    | "serve-mixed", traced -> serve_run ~seed ~seconds ~traced ~facts
    | w, false -> (suite_untraced ~workload:w ~seed ~seconds ~facts, [])
    | w, true -> suite_traced ~workload:w ~seed ~facts
  in
  let exe_digest = String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12 in
  Facts.merge_file facts (Filename.concat out_dir ("facts-" ^ exe_digest ^ ".tsv"));
  List.iter (fun v -> fail ("nondeterministic: " ^ v)) (Facts.violations facts);
  if trace then begin
    let path = Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" workload seed) in
    Out_channel.with_open_text path (fun oc ->
        output_string oc (Json.print (Span.to_chrome ~meta:fingerprint (Span.spans ()))));
    Printf.printf "chrome trace: %s (%d spans)\n" path (List.length (Span.spans ()))
  end;
  List.iter (fun (n, v, u) -> Printf.printf "  %-28s %16.6g %s%s\n" n v u (if List.mem n na then "  (n/a)" else "")) metrics;
  if na <> [] then Printf.printf "does not apply to %s: %s\n" workload (String.concat " " na);
  Printf.printf "fail_frac: %g (%d of %d operations failed)\n"
    (float_of_int !failed /. float_of_int (max 1 !attempted)) !failed !attempted;
  List.iter (fun n -> Printf.printf "failure: %s\n" n) (List.rev !failure_notes);
  print_endline
    (Json.print
       (Json.Obj
          [
            ("correct", Json.Bool (!failed = 0 && !attempted > 0));
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ("metrics", metric_json metrics);
          ]));
  exit 0
