(* The end-to-end CGCM pipeline: CGC source -> AST -> DOALL outlining ->
   IR -> communication management -> communication optimization.

   This is the facade most users (CLI, examples, benchmarks, tests) go
   through. *)

module Ast = Cgcm_frontend.Ast
module Parser = Cgcm_frontend.Parser
module Doall = Cgcm_frontend.Doall
module Lower = Cgcm_frontend.Lower
module Ir = Cgcm_ir.Ir
module Interp = Cgcm_interp.Interp
module Pass = Cgcm_transform.Pass
module Manager = Cgcm_analysis.Manager

(* How much of CGCM runs after parallelization. *)
type level =
  | Unmanaged  (* DOALL only: launches carry raw CPU pointers *)
  | Managed  (* + communication management (unoptimized CGCM) *)
  | Optimized  (* + glue kernels, alloca promotion, map promotion *)

type compiled = {
  modul : Ir.modul;
  doall : Doall.report;
  level : level;
  parallel : Doall.mode;
  pass_stats : Pass.pass_stat list;  (* one row per pass execution *)
  cache_stats : (string * int * int) list;  (* analysis, hits, misses *)
}

let plan_of_level = function
  | Unmanaged -> Pass.unmanaged_plan
  | Managed -> Pass.managed_pipeline
  | Optimized -> Pass.optimized_pipeline

let compile ?(parallel = Doall.Auto) ?(level = Optimized) ?plan
    ?(analysis = Manager.Cached) ?hooks ?verify (source : string) : compiled =
  let ast = Parser.parse_string source in
  let ast, doall = Doall.transform ~mode:parallel ast in
  let modul = Lower.lower_program ast in
  (* The pass framework runs the §5.3 schedule over a caching analysis
     manager; simplification runs in every configuration (including the
     sequential baseline) so cost comparisons stay fair. An explicit
     [plan] overrides the level's; the level still names what the
     interpreter should expect of the module. *)
  let plan = match plan with Some p -> p | None -> plan_of_level level in
  let mgr = Manager.create ~mode:analysis modul in
  let stats = ref [] in
  let base = match hooks with Some h -> h | None -> Pass.default_hooks in
  let hooks =
    {
      base with
      Pass.on_stat =
        (fun s ->
          stats := s :: !stats;
          base.Pass.on_stat s);
    }
  in
  Pass.run_plan ~hooks ?verify mgr plan;
  {
    modul;
    doall;
    level;
    parallel;
    pass_stats = List.rev !stats;
    cache_stats = Manager.stats mgr;
  }

(* The paper's execution configurations. *)
type execution =
  | Sequential  (* best sequential CPU-only run: the baseline *)
  | Cgcm_unoptimized
  | Cgcm_optimized
  | Inspector_executor_exec
  | Unified_oracle of level  (* functional oracle for differential tests *)

let execution_to_string = function
  | Sequential -> "sequential"
  | Cgcm_unoptimized -> "cgcm-unopt"
  | Cgcm_optimized -> "cgcm-opt"
  | Inspector_executor_exec -> "inspector-executor"
  | Unified_oracle _ -> "unified-oracle"

(* How an execution configuration compiles and runs: (DOALL mode, level,
   interpreter mode, dirty spans). The sequential baseline has no DOALL
   and no management; explicitly written kernels (the manual-
   parallelization path) still carry launch statements, so it executes
   in unified memory, where kernels run as ordinary host loops charged
   as CPU time. Dirty-span transfers are part of the optimized run-time;
   the unoptimized configuration keeps the paper's whole-unit protocol
   so the Figure 4 contrast measures what the paper measures. *)
let execution_config ?(parallel = Doall.Auto) = function
  | Sequential -> (Doall.Off, Unmanaged, Interp.Unified, false)
  | Cgcm_unoptimized -> (parallel, Managed, Interp.Split, false)
  | Cgcm_optimized -> (parallel, Optimized, Interp.Split, true)
  | Inspector_executor_exec ->
    (parallel, Unmanaged, Interp.Inspector_executor, false)
  | Unified_oracle level -> (parallel, level, Interp.Unified, false)

let run ?parallel ?(cost = Cgcm_gpusim.Cost_model.default)
    ?(trace = false) ?(engine = Interp.default_config.Interp.engine)
    ?dirty_spans ?faults ?device_mem ?page_bytes ?(paranoid = false)
    ?(sanitize = false) ?(jobs = 0)
    ?(backend = Cgcm_runtime.Mem_backend.Explicit) (execution : execution)
    (source : string) : compiled * Interp.result =
  let parallel, level, mode, default_spans =
    execution_config ?parallel execution
  in
  (* an explicit [dirty_spans] overrides for A/B experiments *)
  let dirty_spans = Option.value dirty_spans ~default:default_spans in
  let cost =
    match device_mem with
    | Some bytes -> { cost with Cgcm_gpusim.Cost_model.device_mem_bytes = bytes }
    | None -> cost
  in
  let cost =
    match page_bytes with
    | Some bytes -> { cost with Cgcm_gpusim.Cost_model.page_bytes = bytes }
    | None -> cost
  in
  let config =
    {
      Interp.default_config with
      mode;
      cost;
      trace;
      engine;
      dirty_spans;
      faults;
      paranoid;
      sanitize;
      jobs;
      backend;
    }
  in
  let c = compile ~parallel ~level source in
  (c, Interp.run ~config c.modul)
