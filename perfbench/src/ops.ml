(* One benchmark operation: compile a CGC program for one configuration
   and execute it on the simulated machine, with spans around each
   layer's public entry points when tracing is on. *)

module Pipeline = Cgcm_core.Pipeline
module Interp = Cgcm_interp.Interp
module Mem_backend = Cgcm_runtime.Mem_backend
module Runtime = Cgcm_runtime.Runtime
module Pass = Cgcm_transform.Pass
module Manager = Cgcm_analysis.Manager
module Doall = Cgcm_frontend.Doall

type exec = Seq | Unopt | Opt | Ie
type config = { exec : exec; backend : Mem_backend.kind }

let explicit exec = { exec; backend = Mem_backend.Explicit }
let paged exec = { exec; backend = Mem_backend.Paged }

(* Spelled as the serve daemon's request modes, so one expected-output
   table serves the suite and serve workloads alike. *)
let config_name c =
  (match c.exec with
  | Seq -> "seq"
  | Unopt -> "unopt"
  | Opt -> "opt"
  | Ie -> "ie")
  ^ match c.backend with Mem_backend.Explicit -> "" | Mem_backend.Paged -> "+paged"

let config_of_name s =
  let base, backend =
    match String.index_opt s '+' with
    | None -> (s, Mem_backend.Explicit)
    | Some i -> (
      ( String.sub s 0 i,
        match String.sub s (i + 1) (String.length s - i - 1) with
        | "paged" -> Mem_backend.Paged
        | "explicit" -> Mem_backend.Explicit
        | b -> invalid_arg ("unknown backend " ^ b) ))
  in
  let exec =
    match base with
    | "seq" -> Seq
    | "unopt" -> Unopt
    | "opt" -> Opt
    | "ie" -> Ie
    | m -> invalid_arg ("unknown mode " ^ m)
  in
  { exec; backend }

(* The compile and execution settings [Pipeline.run] picks for each of
   the paper's configurations; [test_perfbench] pins the equivalence. *)
let level = function
  | Seq | Ie -> Pipeline.Unmanaged
  | Unopt -> Pipeline.Managed
  | Opt -> Pipeline.Optimized

let parallel = function Seq -> Doall.Off | Unopt | Opt | Ie -> Doall.Auto

let interp_config c =
  {
    Interp.default_config with
    mode =
      (match c.exec with
      | Seq -> Interp.Unified
      | Unopt | Opt -> Interp.Split
      | Ie -> Interp.Inspector_executor);
    dirty_spans = c.exec = Opt;
    backend = c.backend;
  }

type compiled = {
  modul : Cgcm_ir.Ir.modul;
  kernels : int;
  pass_runs : int;
  ir_instrs_lowered : int;  (* before the first pass *)
  ir_instrs : int;  (* after the plan *)
  rtcalls : int;
  analysis_hits : int;
  analysis_misses : int;
}

let of_pipeline (c : Pipeline.compiled) =
  let first = match c.pass_stats with s :: _ -> s.Pass.ps_instrs_before | [] -> 0 in
  let hits, misses =
    List.fold_left (fun (h, m) (_, hh, mm) -> (h + hh, m + mm)) (0, 0) c.cache_stats
  in
  {
    modul = c.modul;
    kernels = List.length c.doall.Doall.kernels;
    pass_runs = List.length c.pass_stats;
    ir_instrs_lowered = first;
    ir_instrs = Pass.instr_count c.modul;
    rtcalls = Pass.runtime_call_count c.modul;
    analysis_hits = hits;
    analysis_misses = misses;
  }

(* A pass's name as metrics spell it ("comm-mgmt" -> "comm_mgmt"); its
   span is "transform." followed by that. *)
let pass_metric_name (p : Pass.t) = String.map (fun ch -> if ch = '-' then '_' else ch) p.Pass.name

let rec wrap_plan plan =
  List.map
    (function
      | Pass.Atom p ->
        let name = "transform." ^ pass_metric_name p in
        Pass.Atom { p with Pass.step = (fun m -> Span.with_ name (fun () -> p.Pass.step m)) }
      | Pass.Fixpoint { max_iter; body } ->
        Pass.Fixpoint { max_iter; body = wrap_plan body })
    plan

(* [Pipeline.compile] taken apart stage by stage so each layer gets its
   own span: Parser, Doall, Lower, then the pass plan with every pass's
   step wrapped. [staged_matches_pipeline] checks the result prints the
   same IR as the real facade. *)
let compile_staged ~parallel ~level source : Pipeline.compiled =
  let ast = Span.with_ "frontend.parse" (fun () -> Cgcm_frontend.Parser.parse_string source) in
  let ast, doall = Span.with_ "frontend.doall" (fun () -> Doall.transform ~mode:parallel ast) in
  let modul = Span.with_ "frontend.lower" (fun () -> Cgcm_frontend.Lower.lower_program ast) in
  let stats = ref [] in
  let hooks = { Pass.default_hooks with Pass.on_stat = (fun s -> stats := s :: !stats) } in
  let mgr =
    Span.with_ "transform.run_plan" (fun () ->
        let mgr = Manager.create modul in
        Pass.run_plan ~hooks mgr (wrap_plan (Pipeline.plan_of_level level));
        mgr)
  in
  {
    Pipeline.modul;
    doall;
    level;
    parallel;
    pass_stats = List.rev !stats;
    cache_stats = Manager.stats mgr;
  }

let compile ~traced c source =
  let parallel = parallel c.exec and level = level c.exec in
  of_pipeline
    (if traced then Span.with_ "pipeline.compile" (fun () -> compile_staged ~parallel ~level source)
     else Pipeline.compile ~parallel ~level source)

let shuffle rng items =
  let a = Array.of_list items in
  for i = Array.length a - 1 downto 1 do
    let j = Cgcm_support.Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* A seed-fixed permutation of [items]; [stream] picks an independent
   permutation for the same seed (one per pass). *)
let order ?(stream = 0) ~seed items = shuffle (Cgcm_support.Rng.stream ~seed stream) items

let staged_matches_pipeline c source =
  let parallel = parallel c.exec and level = level c.exec in
  let print m = Cgcm_ir.Printer.modul_to_string m in
  let was = !Span.enabled in
  Span.enabled := false;
  let staged = Fun.protect ~finally:(fun () -> Span.enabled := was) (fun () ->
      compile_staged ~parallel ~level source)
  in
  print staged.Pipeline.modul = print (Pipeline.compile ~parallel ~level source).Pipeline.modul

type outcome = {
  compile_s : float;
  run_s : float;
  compiled : compiled;
  result : Interp.result;
}

(* Compile [compile_reps] times and run the last result once. *)
let execute ?(compile_reps = 1) ~traced c source =
  let compile_s, compiled = Clock.fastest compile_reps (fun () -> compile ~traced c source) in
  let run_s, result =
    Clock.timed (fun () ->
        Span.with_ "interp.run" (fun () -> Interp.run ~config:(interp_config c) compiled.modul))
  in
  { compile_s; run_s; compiled; result }

let leak_free (r : Interp.result) =
  let l = r.Interp.leaks in
  l.Runtime.resident_nonglobal = 0 && l.Runtime.leaked_dev_blocks = 0
  && l.Runtime.leaked_dev_bytes = 0

(* Everything about an operation that must repeat exactly: simulated
   time, instruction and transfer counts, run-time and paging counters,
   and the compiler's own counts. Floats in hex so equality is exact. *)
let facts o =
  let r = o.result and c = o.compiled in
  let d = r.Interp.dev_stats and rt = r.Interp.rt_stats in
  let pg =
    match r.Interp.page_stats with
    | None -> "-"
    | Some p ->
      let open Cgcm_runtime.Paged in
      Printf.sprintf "%d/%d/%d/%d/%d/%d" p.touches p.touched_pages p.faults_to_dev
        p.faults_to_host p.bytes_to_dev p.bytes_to_host
  in
  let open Cgcm_gpusim.Device in
  Printf.sprintf
    "wall=%h cpu=%h gpu=%h comm=%h sync=%h insts=%d/%d dev=%d/%d/%d/%d/%d peak=%d \
     rt=%d/%d/%d/%d/%d/%d pg=%s ir=%d/%d k=%d runs=%d rtc=%d an=%d/%d"
    r.Interp.wall r.Interp.cpu_compute r.Interp.gpu r.Interp.comm r.Interp.sync
    r.Interp.cpu_insts r.Interp.kernel_insts d.htod_bytes d.dtoh_bytes d.htod_count
    d.dtoh_count d.launches r.Interp.dev_peak_bytes rt.Runtime.map_calls
    rt.Runtime.unmap_calls rt.Runtime.release_calls rt.Runtime.skipped_copies
    rt.Runtime.bytes_saved rt.Runtime.partial_copies pg c.ir_instrs_lowered c.ir_instrs
    c.kernels c.pass_runs c.rtcalls c.analysis_hits c.analysis_misses
