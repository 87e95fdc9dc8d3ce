(* Tests for the benchmark's own logic: order statistics, span self
   times, seed reproducibility, the closed loop's connection bound, the
   expected-output table, and the decomposed pipeline's equivalence with
   Pipeline.run. *)

open Perfbench
module Wire = Cgcm_serve.Wire
module Pipeline = Cgcm_core.Pipeline
module Interp = Cgcm_interp.Interp

let close = Alcotest.float 1e-9

(* --- percentiles ---------------------------------------------------- *)

let test_percentile () =
  let xs = List.init 1000 (fun i -> float_of_int (i + 1)) in
  let p99 = Summary.percentile 99.0 xs in
  Alcotest.check close "p99 of 1..1000" 990.0 p99.Summary.value;
  Alcotest.(check int) "sample count" 1000 p99.Summary.samples;
  Alcotest.(check int) "ten samples beyond the p99" 10 p99.Summary.beyond;
  Alcotest.check close "midpoint median of an even count" 2.5
    (Summary.midpoint_median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check close "midpoint median of an odd count" 2.0 (Summary.midpoint_median [ 3.0; 1.0; 2.0 ]);
  let p50 = Summary.percentile 50.0 [ 3.0; 1.0; 2.0 ] in
  Alcotest.check close "p50 of three" 2.0 p50.Summary.value;
  Alcotest.(check int) "one beyond the p50 of three" 1 p50.Summary.beyond;
  let small = Summary.percentile 99.0 (List.init 96 float_of_int) in
  Alcotest.check close "p99 of 96 samples is the maximum" 95.0 small.Summary.value;
  Alcotest.(check int) "none beyond" 0 small.Summary.beyond;
  let tail = Summary.tail (List.init 96 float_of_int) in
  Alcotest.(check int) "the tail of 96 leaves ten beyond" 10 tail.Summary.beyond;
  Alcotest.check close "at rank 86" 85.0 tail.Summary.value;
  Alcotest.(check int) "the tail of 48 leaves ten beyond" 10
    (Summary.tail (List.init 48 float_of_int)).Summary.beyond;
  let big = Summary.tail (List.init 1000 (fun i -> float_of_int (i + 1))) in
  Alcotest.check close "the tail of 1000 is the p99" 990.0 big.Summary.value;
  Alcotest.check close "named p99" 99.0 big.Summary.pct;
  Alcotest.check_raises "no samples" (Invalid_argument "Summary.percentile: no samples") (fun () ->
      ignore (Summary.percentile 50.0 []))

(* --- spans ------------------------------------------------------------ *)

let span id ?(parent = -1) name t0 t1 = { Span.id; name; parent; op = 0; t0; t1 }

let test_self_time () =
  (* root [0,10] with children [1,4] and [3,6] (overlapping: together
     they cover [1,6]) and [8,9]; the first child has a grandchild
     [2,3]. *)
  let spans =
    [
      span 0 "root" 0.0 10.0;
      span 1 ~parent:0 "a" 1.0 4.0;
      span 2 ~parent:0 "b" 3.0 6.0;
      span 3 ~parent:0 "a" 8.0 9.0;
      span 4 ~parent:1 "leaf" 2.0 3.0;
    ]
  in
  let self = Span.self_times spans in
  let get n = List.assoc n self in
  Alcotest.check close "root minus the union of its children" 4.0 (get "root");
  Alcotest.check close "a: both spans, minus the grandchild" 3.0 (get "a");
  Alcotest.check close "b" 3.0 (get "b");
  Alcotest.check close "leaf" 1.0 (get "leaf");
  let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 self in
  Alcotest.check close "self times partition the root" 11.0 total

let test_recorded_nesting () =
  Span.reset ();
  Span.enabled := true;
  let v =
    Span.in_op 7 (fun () ->
        Span.with_ "outer" (fun () -> Span.with_ "inner" (fun () -> 42) + Span.with_ "inner" (fun () -> 1)))
  in
  (try Span.with_ "raises" (fun () -> failwith "x") with Failure _ -> ());
  Span.enabled := false;
  ignore (Span.with_ "off" (fun () -> ()));
  Alcotest.(check int) "value passes through" 43 v;
  let spans = Span.spans () in
  Alcotest.(check (list string)) "names in completion order"
    [ "inner"; "inner"; "outer"; "raises" ] (List.map (fun s -> s.Span.name) spans);
  let outer = List.find (fun s -> s.Span.name = "outer") spans in
  List.iter
    (fun s ->
      if s.Span.name = "inner" then begin
        Alcotest.(check int) "inner's parent is outer" outer.Span.id s.Span.parent;
        Alcotest.(check int) "operation id" 7 s.Span.op
      end)
    spans;
  Alcotest.(check int) "root has no parent" (-1) outer.Span.parent;
  let self = Span.self_times spans in
  Alcotest.(check bool) "outer's self time excludes inner" true
    (List.assoc "outer" self <= outer.Span.t1 -. outer.Span.t0);
  Span.reset ()

(* --- seeds ----------------------------------------------------------- *)

let wires reqs = List.map (fun r -> Wire.request_to_json r.Traffic.wire) reqs

let test_seed_stream () =
  let a = Traffic.pass ~seed:7 ~pass:0 ~size:320 in
  let b = Traffic.pass ~seed:7 ~pass:0 ~size:320 in
  Alcotest.(check bool) "same seed, identical request stream" true (wires a = wires b);
  let c = Traffic.pass ~seed:8 ~pass:0 ~size:320 in
  Alcotest.(check bool) "another seed, another stream" false (wires a = wires c);
  let next = Traffic.pass ~seed:7 ~pass:1 ~size:320 in
  let ids = List.map (fun r -> r.Traffic.wire.Wire.rq_id) (a @ next) in
  Alcotest.(check int) "ids unique across passes" 640 (List.length (List.sort_uniq compare ids));
  let cold = List.filter (fun r -> r.Traffic.cold) (a @ next) in
  let n = List.length cold in
  Alcotest.(check int) "one request in ten is cold" 64 n;
  let count f l = List.length (List.filter f l) in
  Alcotest.(check int) "the mix is fixed: loadgen0 hot" 36
    (count (fun r -> r.Traffic.cls = "loadgen0" && not r.Traffic.cold) a);
  Alcotest.(check int) "the mix is fixed: atax hot" 36
    (count (fun r -> r.Traffic.cls = "atax" && not r.Traffic.cold) a);
  Alcotest.(check int) "modes in Loadgen's shares: opt" 168
    (count (fun r -> r.Traffic.wire.Wire.rq_mode = "opt") a);
  Alcotest.(check int) "modes in Loadgen's shares: opt+paged" 48
    (count (fun r -> r.Traffic.wire.Wire.rq_mode = "opt+paged") a);
  Alcotest.(check bool) "passes differ in order" false
    (List.map (fun r -> r.Traffic.cls) a = List.map (fun r -> r.Traffic.cls) next);
  let sources = List.map (fun r -> r.Traffic.wire.Wire.rq_source) cold in
  Alcotest.(check int) "cold sources never repeat" n (List.length (List.sort_uniq compare sources));
  let hot_sources = List.map snd Traffic.sources in
  List.iter
    (fun r ->
      if not r.Traffic.cold then
        Alcotest.(check bool) "hot requests use hot-set sources" true
          (List.mem r.Traffic.wire.Wire.rq_source hot_sources))
    a

let test_seed_order () =
  let items = List.init 96 Fun.id in
  let a = Ops.order ~seed:3 items and b = Ops.order ~seed:3 items in
  Alcotest.(check (list int)) "same seed, same operation order" a b;
  Alcotest.(check bool) "another seed, another order" false (a = Ops.order ~seed:4 items);
  Alcotest.(check (list int)) "a permutation" items (List.sort compare a)

(* --- closed loop ----------------------------------------------------- *)

(* A stand-in daemon on a unix socket that answers every run frame at
   once with an Ok reply, counting connections as it accepts them. *)
let fake_daemon path ~stop =
  let listen = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen (Unix.ADDR_UNIX path);
  Unix.listen listen 64;
  let accepted = ref 0 and open_now = ref 0 and max_open = ref 0 in
  let conns = Hashtbl.create 8 in
  let buf = Bytes.create 4096 in
  let serve () =
    while not (Atomic.get stop) do
      let fds = listen :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns [] in
      let ready, _, _ = Unix.select fds [] [] 0.01 in
      List.iter
        (fun fd ->
          if fd = listen then begin
            let c, _ = Unix.accept listen in
            incr accepted;
            incr open_now;
            max_open := max !max_open !open_now;
            Hashtbl.replace conns c (Wire.decoder ())
          end
          else
            let dec = Hashtbl.find conns fd in
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 ->
              Hashtbl.remove conns fd;
              decr open_now;
              Unix.close fd
            | n ->
              Wire.decoder_feed dec buf n;
              List.iter
                (fun v ->
                  let rq = Wire.request_of_json v in
                  Wire.write_frame fd
                    (Wire.reply_to_json
                       {
                         Wire.rp_id = rq.Wire.rq_id;
                         rp_status = Wire.Ok;
                         rp_output = rq.Wire.rq_tenant;
                         rp_exit_code = 0;
                         rp_error = "";
                         rp_cache = "hit";
                         rp_degraded = false;
                         rp_retries = 0;
                         rp_wall_ms = 0.1;
                       }))
                (Wire.decoder_drain dec))
        ready
    done;
    Hashtbl.iter (fun fd _ -> Unix.close fd) conns;
    Unix.close listen
  in
  (Thread.create serve (), accepted, max_open)

let test_closed_loop_bound () =
  let path = Filename.temp_file "perfbench" ".sock" in
  Sys.remove path;
  let stop = Atomic.make false in
  let th, accepted, max_open = fake_daemon path ~stop in
  let clients = 3 in
  let loop = Closed_loop.create ~connect:(Closed_loop.connect_unix path) ~clients in
  let replies = ref [] in
  let on_reply (s : Closed_loop.sample) =
    Alcotest.(check int) "reply answers its request" s.Closed_loop.request.Wire.rq_id
      s.Closed_loop.reply.Wire.rp_id;
    replies := s.Closed_loop.reply.Wire.rp_id :: !replies
  in
  List.iter
    (fun pass ->
      Closed_loop.run_pass loop ~on_reply
        (List.map (fun r -> r.Traffic.wire) (Traffic.pass ~seed:1 ~pass ~size:25)))
    [ 0; 1; 2 ];
  Closed_loop.close loop;
  Atomic.set stop true;
  Thread.join th;
  Sys.remove path;
  Alcotest.(check int) "every request answered once" 75 (List.length (List.sort_uniq compare !replies));
  Alcotest.(check int) "connections opened over three passes" clients !accepted;
  Alcotest.(check bool) "never more than C open at once" true (!max_open <= clients)

(* --- host speed and isolation --------------------------------------------- *)

let test_calib_window () =
  let tl = Calib.timeline () in
  let nominal = Calib.nominal_s in
  (* Samples at t = 0..9 s: the host runs at half speed from t = 5. *)
  Calib.add tl (List.init 10 (fun t -> (float_of_int t, if t < 5 then nominal else 2.0 *. nominal)));
  Alcotest.check close "fast phase" 1.0 (Calib.factor tl ~t0:1.0 ~t1:1.5);
  Alcotest.check close "slow phase" 0.5 (Calib.factor tl ~t0:8.0 ~t1:8.5);
  Alcotest.check close "nearest sample when none is in the window" 0.5
    (Calib.factor tl ~t0:30.0 ~t1:31.0)

let test_isolate () =
  let r : (int, string) result = Isolate.run (fun () -> 6 * 7) in
  Alcotest.(check (result int string)) "value comes back" (Ok 42) r;
  let e : (int, string) result = Isolate.run (fun () -> failwith "boom") in
  Alcotest.(check bool) "exception comes back as an error" true (Result.is_error e);
  Alcotest.(check (option int)) "no child left" None !Isolate.current

(* --- expected-output table --------------------------------------------- *)

let test_expected_roundtrip () =
  let path = Filename.temp_file "perfbench" ".tsv" in
  let tricky = "1.5\n\"quoted\"\ttab\\ \n" in
  Expected.save path
    [
      (("p", "opt"), { Expected.exit_code = 0; output = tricky });
      (("p", "seq"), { Expected.exit_code = 3; output = "" });
    ];
  let t = Expected.load path in
  Sys.remove path;
  Alcotest.(check (option string)) "match" None
    (Expected.check t ~program:"p" ~config:"opt" ~exit_code:0 ~output:tricky);
  Alcotest.(check bool) "exit code mismatch" true
    (Expected.check t ~program:"p" ~config:"seq" ~exit_code:0 ~output:"" <> None);
  Alcotest.(check bool) "output mismatch" true
    (Expected.check t ~program:"p" ~config:"opt" ~exit_code:0 ~output:"1.5\n" <> None);
  Alcotest.(check bool) "unknown entry" true
    (Expected.check t ~program:"q" ~config:"opt" ~exit_code:0 ~output:"" <> None)

(* --- the decomposed pipeline --------------------------------------------- *)

let pipeline_exec = function
  | Ops.Seq -> Pipeline.Sequential
  | Ops.Unopt -> Pipeline.Cgcm_unoptimized
  | Ops.Opt -> Pipeline.Cgcm_optimized
  | Ops.Ie -> Pipeline.Inspector_executor_exec

let test_matches_pipeline () =
  let sources =
    [ ("loadgen1", Cgcm_serve.Loadgen.source ~variant:1); ("atax", List.assoc "atax" Traffic.sources) ]
  in
  List.iter
    (fun (name, source) ->
      List.iter
        (fun mode ->
          let c = Ops.config_of_name mode in
          Alcotest.(check string) "config names round-trip" mode (Ops.config_name c);
          let o = Ops.execute ~traced:false c source in
          let _, r = Pipeline.run ~backend:c.Ops.backend (pipeline_exec c.Ops.exec) source in
          let what = name ^ "/" ^ mode in
          Alcotest.(check string) (what ^ " output") r.Interp.output o.Ops.result.Interp.output;
          Alcotest.check close (what ^ " simulated cycles") r.Interp.wall o.Ops.result.Interp.wall;
          Alcotest.(check int) (what ^ " cpu instructions") r.Interp.cpu_insts
            o.Ops.result.Interp.cpu_insts;
          Alcotest.(check bool) (what ^ " device stats") true
            (r.Interp.dev_stats = o.Ops.result.Interp.dev_stats);
          Alcotest.(check bool) (what ^ " staged compile prints the same IR") true
            (Ops.staged_matches_pipeline c source);
          Span.reset ();
          Span.enabled := true;
          let t = Ops.execute ~traced:true c source in
          Span.enabled := false;
          Alcotest.(check string) (what ^ " traced facts") (Ops.facts o) (Ops.facts t);
          let names = List.map (fun s -> s.Span.name) (Span.spans ()) in
          List.iter
            (fun n -> Alcotest.(check bool) (what ^ " has span " ^ n) true (List.mem n names))
            [ "frontend.parse"; "frontend.doall"; "frontend.lower"; "transform.run_plan";
              "transform.simplify"; "interp.run" ];
          Span.reset ())
        [ "seq"; "unopt"; "opt"; "ie"; "unopt+paged"; "opt+paged" ])
    sources

let () =
  Alcotest.run "perfbench"
    [
      ("summary", [ Alcotest.test_case "percentile with sample count" `Quick test_percentile ]);
      ( "span",
        [
          Alcotest.test_case "self time from nested spans" `Quick test_self_time;
          Alcotest.test_case "recorded nesting" `Quick test_recorded_nesting;
        ] );
      ( "seed",
        [
          Alcotest.test_case "request stream" `Quick test_seed_stream;
          Alcotest.test_case "operation order" `Quick test_seed_order;
        ] );
      ("closed loop", [ Alcotest.test_case "at most C connections" `Quick test_closed_loop_bound ]);
      ( "host",
        [
          Alcotest.test_case "calibration window" `Quick test_calib_window;
          Alcotest.test_case "forked child" `Quick test_isolate;
        ] );
      ("expected", [ Alcotest.test_case "table round trip" `Quick test_expected_roundtrip ]);
      ("ops", [ Alcotest.test_case "decomposed run matches Pipeline.run" `Quick test_matches_pipeline ]);
    ]
