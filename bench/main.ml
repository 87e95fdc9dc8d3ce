(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 6) and runs the repository's exit-coded
   gates. It writes no file; host-time measurement with a fingerprint
   and repetitions lives in perfbench/.

     dune exec bench/main.exe                 -- every paper artifact
     dune exec bench/main.exe -- figure4      -- one artifact
     dune exec bench/main.exe -- table3
     dune exec bench/main.exe -- table1
     dune exec bench/main.exe -- figure2
     dune exec bench/main.exe -- applicability
     dune exec bench/main.exe -- ablation
     dune exec bench/main.exe -- validate     -- the claims gate
     dune exec bench/main.exe -- compile      -- cached vs uncached gate
     dune exec bench/main.exe -- serve [--seeds=11,23]

   A gate that fails exits 1; an unknown argument exits 2. *)

module E = Cgcm_core.Experiments
module Pipeline = Cgcm_core.Pipeline
module Interp = Cgcm_interp.Interp
module Registry = Cgcm_progs.Registry
module Table = Cgcm_report.Table
module Pass = Cgcm_transform.Pass
module Manager = Pass.Manager
module Loadgen = Cgcm_serve.Loadgen

let section title =
  Fmt.pr "@.%s@.%s@.@." title (String.make (String.length title) '=')

let fail fmt = Fmt.kstr (fun msg -> Fmt.epr "%s@." msg; exit 1) fmt

(* ------------------------------------------------------------------ *)
(* The paper's artifacts                                               *)

let get_suite =
  let results =
    lazy
      (E.run_suite
         ~progress:(fun name -> Fmt.epr "  running %s...@." name)
         ())
  in
  fun () -> Lazy.force results

let figure4 () =
  section "Figure 4: whole-program speedups (24 programs)";
  print_string (E.figure4 (get_suite ()))

let table3 () =
  section "Table 3: program characteristics";
  print_string (E.table3 (get_suite ()))

let table1 () =
  section "Table 1: communication-system applicability";
  print_string (E.table1 ())

let figure1 () =
  section "Figure 1: taxonomy of related work";
  print_string (E.figure1 ())

let figure3 () =
  section "Figure 3: system overview";
  print_string (E.figure3 ())

let figure2 () =
  section "Figure 2: execution schedules";
  print_string (E.figure2 ())

let applicability () =
  section "Section 6 applicability claim";
  print_string (E.applicability (get_suite ()))

let volume () =
  section "Communication volume (extension)";
  print_string (E.volume_table (get_suite ()))

let breakdown () =
  section "Time breakdown (extension)";
  print_string (E.breakdown_table (get_suite ()))

let ablation () =
  section "Ablation: optimization passes in isolation";
  print_string (E.ablation ())

let sweep () =
  section "Cost-model sensitivity sweep (extension)";
  print_string (E.latency_sweep ())

(* The headline claims, the backend claims checked against each
   program's optimized run on the paged backend. *)
let validate () =
  section "Claim validation";
  let suite = get_suite () in
  let paged =
    List.map
      (fun (r : E.prog_result) ->
        Fmt.epr "  running %s on the paged backend...@." r.E.prog.Registry.name;
        snd
          (Pipeline.run ~backend:Cgcm_runtime.Mem_backend.Paged
             Pipeline.Cgcm_optimized r.E.prog.Registry.source))
      suite
  in
  let text, ok = Cgcm_core.Validate.report suite ~paged in
  print_string text;
  if not ok then exit 1

(* ------------------------------------------------------------------ *)
(* compile: the caching analysis manager vs restart-from-scratch       *)

(* The optimized pipeline over every suite program, [reps] times, once
   with cached analyses and once with every query recomputed (what the
   mid-end did before the manager existed). Only the cache policy
   differs; the manager must win by [min_speedup]. *)
let reps = 5
let min_speedup = 1.5

let compile_gate () =
  section "Compile time: cached vs uncached analyses";
  let measure analysis =
    let per_pass = Hashtbl.create 8 and cache = Hashtbl.create 8 in
    let bump tbl k f zero =
      let v = Option.value (Hashtbl.find_opt tbl k) ~default:zero in
      Hashtbl.replace tbl k (f v)
    in
    for _ = 1 to reps do
      List.iter
        (fun (p : Registry.program) ->
          let c =
            Pipeline.compile ~level:Pipeline.Optimized ~analysis
              p.Registry.source
          in
          List.iter
            (fun (s : Pass.pass_stat) ->
              bump per_pass s.Pass.ps_pass (( +. ) s.Pass.ps_wall_ms) 0.0)
            c.Pipeline.pass_stats;
          List.iter
            (fun (n, h, m) ->
              bump cache n (fun (h0, m0) -> (h0 + h, m0 + m)) (0, 0))
            c.Pipeline.cache_stats)
        Registry.all
    done;
    let sorted tbl =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
    in
    (sorted per_pass, sorted cache)
  in
  Fmt.epr "  timing the optimized pipeline with cached analyses...@.";
  let cached_pass, cached_cache = measure Manager.Cached in
  Fmt.epr "  timing the optimized pipeline with uncached analyses...@.";
  let unc_pass, unc_cache = measure Manager.Uncached in
  let total rows = List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 rows in
  let ms x = Printf.sprintf "%.2f" x in
  let hm (h, m) = Printf.sprintf "%d/%d" h m in
  (* both sides run the same plan on the same programs, so they name the
     same passes and analyses *)
  let side_by_side show cached uncached =
    List.map
      (fun (name, c) -> [ name; show c; show (List.assoc name uncached) ])
      cached
  in
  let aligns = [ Table.Left; Table.Right; Table.Right ] in
  Fmt.pr "%d programs x %d reps, optimized pipeline; ms summed per pass@.@."
    (List.length Registry.all) reps;
  print_string
    (Table.render ~aligns ~header:[ "pass"; "cached ms"; "uncached ms" ]
       (side_by_side ms cached_pass unc_pass
       @ [ [ "total"; ms (total cached_pass); ms (total unc_pass) ] ]));
  Fmt.pr "@.";
  print_string
    (Table.render ~aligns
       ~header:[ "analysis"; "cached hits/misses"; "uncached hits/misses" ]
       (side_by_side hm cached_cache unc_cache));
  let speedup = total unc_pass /. total cached_pass in
  Fmt.pr "@.compile speedup (uncached / cached): %.2fx (gate >= %.1fx)@."
    speedup min_speedup;
  if speedup < min_speedup then
    fail "compile gate: speedup %.2fx below %.1fx" speedup min_speedup

(* ------------------------------------------------------------------ *)
(* serve: daemon load gate                                             *)

(* Forks the daemon, drives it with the deterministic load generator at
   each fault seed, and prints requests/sec, p50/p99 latency, shed rate
   and cache hit rate. The seeds double as a stability gate: the
   robustness envelope (admission, deadlines, retries, breakers) should
   make tail latency and shedding insensitive to *which* faults fire, so
   a >2x swing between seeds is a regression. *)
let serve_seeds = ref [ 11; 23 ]
let max_spread = 2.0

let serve () =
  section "cgcm serve: daemon load gate";
  let tenants = 4 and requests = 120 and burst = 16 and max_queue = 8 in
  let faults = "htod%0.02,launch%0.02" in
  let fault_plan seed = Printf.sprintf "%d:%s" seed faults in
  let run_one seed =
    let socket =
      Printf.sprintf "/tmp/cgcm-bench-serve-%d-%d.sock" (Unix.getpid ()) seed
    in
    Fmt.epr "  seed %d: forking daemon on %s...@." seed socket;
    flush_all ();
    match Unix.fork () with
    | 0 ->
      let config =
        {
          Cgcm_serve.Engine.default_config with
          Cgcm_serve.Engine.max_queue;
          faults = Some (Cgcm_gpusim.Faults.parse (fault_plan seed));
        }
      in
      let server =
        Cgcm_serve.Server.create ~engine_config:config ~socket_path:socket ()
      in
      let _line, residual = Cgcm_serve.Server.run server in
      Unix._exit (if residual = 0 then 0 else 1)
    | pid ->
      if not (Cgcm_serve.Client.wait_ready ~socket_path:socket ()) then
        failwith "serve bench: daemon did not come up";
      let report =
        Loadgen.run ~socket_path:socket ~tenants ~requests ~burst ~seed ()
      in
      ignore (Cgcm_serve.Client.shutdown ~socket_path:socket : bool);
      let _, status = Unix.waitpid [] pid in
      (report, status = Unix.WEXITED 0)
  in
  Fmt.pr "%d tenants, %d requests, burst %d, max queue %d, faults %s@.@."
    tenants requests burst max_queue faults;
  let runs =
    List.map
      (fun seed ->
        let report, clean = run_one seed in
        Fmt.pr "seed %d: %s clean_shutdown=%b@." seed (Loadgen.summary report)
          clean;
        (report, clean))
      !serve_seeds
  in
  (* Stability between seeds, with floors so sub-millisecond noise and
     near-zero rates cannot fabricate a huge ratio. *)
  let spread ~floor xs =
    let xs = List.map (Float.max floor) xs in
    List.fold_left Float.max floor xs
    /. List.fold_left Float.min Float.infinity xs
  in
  let p99_ratio =
    spread ~floor:5.0 (List.map (fun (r, _) -> r.Loadgen.lr_p99_ms) runs)
  in
  let shed_ratio =
    spread ~floor:0.01 (List.map (fun (r, _) -> r.Loadgen.lr_shed_rate) runs)
  in
  Fmt.pr "@.p99 ratio %.2f, shed-rate ratio %.2f (bound %.1f)@." p99_ratio
    shed_ratio max_spread;
  if not (List.for_all snd runs) then
    fail "serve gate: daemon did not shut down cleanly";
  if
    not
      (List.for_all
         (fun (r, _) ->
           r.Loadgen.lr_shed > 0 && r.Loadgen.lr_deadline > 0
           && r.Loadgen.lr_cache_hit_rate > 0.0)
         runs)
  then
    fail
      "serve gate: robustness envelope not exercised (need sheds, deadlines \
       and cache hits at every seed)";
  if p99_ratio > max_spread || shed_ratio > max_spread then
    fail
      "serve gate: seed instability (p99 ratio %.2f, shed-rate ratio %.2f; \
       bound %.1f)"
      p99_ratio shed_ratio max_spread

(* ------------------------------------------------------------------ *)

let artifacts =
  [
    ("figure1", figure1);
    ("figure3", figure3);
    ("figure2", figure2);
    ("table1", table1);
    ("figure4", figure4);
    ("table3", table3);
    ("applicability", applicability);
    ("volume", volume);
    ("breakdown", breakdown);
    ("validate", validate);
    ("ablation", ablation);
    ("sweep", sweep);
  ]

let gates = [ ("compile", compile_gate); ("serve", serve) ]

let usage () =
  Fmt.epr "usage: bench/main.exe [%s] [--seeds=N,...]@."
    (String.concat "|" (List.map fst (artifacts @ gates)));
  exit 2

let () =
  let seeds_flag = "--seeds=" in
  let actions =
    List.filter_map
      (fun a ->
        match List.assoc_opt a (artifacts @ gates) with
        | Some f -> Some f
        | None when String.starts_with ~prefix:seeds_flag a -> (
          let n = String.length seeds_flag in
          match
            List.map int_of_string
              (String.split_on_char ',' (String.sub a n (String.length a - n)))
          with
          | seeds ->
            serve_seeds := seeds;
            None
          | exception Failure _ ->
            Fmt.epr "bad seed list %s@." a;
            usage ())
        | None ->
          Fmt.epr "unknown artifact %s@." a;
          usage ())
      (List.tl (Array.to_list Sys.argv))
  in
  List.iter
    (fun f -> f ())
    (if Array.length Sys.argv = 1 then List.map snd artifacts else actions)
