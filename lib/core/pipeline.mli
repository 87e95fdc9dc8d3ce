(** The end-to-end CGCM pipeline: CGC source -> AST -> DOALL outlining ->
    IR -> communication management -> communication optimization -> the
    simulated split-memory machine. This is the facade the CLI, examples,
    benchmarks and tests go through. *)

module Doall = Cgcm_frontend.Doall
module Ir = Cgcm_ir.Ir
module Interp = Cgcm_interp.Interp

(** How much of CGCM runs after parallelization. *)
type level =
  | Unmanaged  (** DOALL only: launches carry raw CPU pointers *)
  | Managed  (** + communication management (unoptimized CGCM) *)
  | Optimized  (** + glue kernels, alloca promotion, map promotion *)

type compiled = {
  modul : Ir.modul;
  doall : Doall.report;  (** kernels created, loops rejected, and why *)
  level : level;
  parallel : Doall.mode;
  pass_stats : Cgcm_transform.Pass.pass_stat list;
      (** one row per pass execution, in execution order *)
  cache_stats : (string * int * int) list;
      (** per-analysis (name, cache hits, misses) from the manager *)
}

val plan_of_level : level -> Cgcm_transform.Pass.plan

val compile :
  ?parallel:Doall.mode ->
  ?level:level ->
  ?plan:Cgcm_transform.Pass.plan ->
  ?analysis:Cgcm_analysis.Manager.mode ->
  ?hooks:Cgcm_transform.Pass.hooks ->
  ?verify:Cgcm_transform.Pass.verify_policy ->
  string ->
  compiled
(** Compile CGC source text. The module is verified after lowering and
    (by default) after every transformation. [plan] overrides the pass
    plan the [level] implies — e.g. a custom [--passes] spec; [analysis]
    selects the manager's cache discipline ([Uncached] is the
    restart-from-scratch baseline the benchmarks compare against,
    [Paranoid] cross-checks every cached result); [hooks] observes each
    pass execution. Raises the frontend/transform exceptions
    ([Parse_error], [Sema_error], [Doall_error], [Ill_formed]) on bad
    input or (for the latter) a compiler bug. *)

(** The paper's execution configurations. *)
type execution =
  | Sequential
      (** best sequential CPU-only run — the baseline. Parallelization is
          off; explicitly written kernels execute in unified memory with
          their work charged as CPU time. *)
  | Cgcm_unoptimized  (** management only: cyclic communication *)
  | Cgcm_optimized  (** full CGCM: acyclic communication *)
  | Inspector_executor_exec  (** the idealized baseline of Section 6.3 *)
  | Unified_oracle of level
      (** flat-memory functional oracle for differential tests *)

val execution_to_string : execution -> string

val execution_config :
  ?parallel:Doall.mode -> execution -> Doall.mode * level * Interp.mode * bool
(** [(parallel, level, mode, dirty_spans)]: how an execution
    configuration compiles and runs. {!Sequential} compiles with DOALL
    off at {!Unmanaged} and runs in {!Interp.Unified}; the others use
    [parallel] (default [Auto]). [dirty_spans] is on only for
    {!Cgcm_optimized}. {!run}, the CLI's hand-built path and the serve
    daemon all take their configuration from here. *)

val run :
  ?parallel:Doall.mode ->
  ?cost:Cgcm_gpusim.Cost_model.t ->
  ?trace:bool ->
  ?engine:Interp.engine ->
  ?dirty_spans:bool ->
  ?faults:Cgcm_gpusim.Faults.spec ->
  ?device_mem:int ->
  ?page_bytes:int ->
  ?paranoid:bool ->
  ?sanitize:bool ->
  ?jobs:int ->
  ?backend:Cgcm_runtime.Mem_backend.kind ->
  execution ->
  string ->
  compiled * Interp.result
(** Compile and execute CGC source under the given configuration
    ({!execution_config}).

    [engine] selects the interpreter engine (default
    {!Interp.default_config}'s, i.e. the closure-compiled one).
    [dirty_spans] overrides the run-time's dirty-span transfer
    optimisation; by default it is on for {!Cgcm_optimized} and off
    elsewhere, so {!Cgcm_unoptimized} keeps the paper's whole-unit
    protocol and the Figure 4 contrast measures what the paper
    measures.

    [faults] arms a deterministic driver fault plan and [device_mem]
    caps device memory (see {!Cgcm_gpusim.Faults}); the run-time then
    recovers via eviction, retry and CPU fallback without changing
    program output. [paranoid] re-checks every run-time invariant after
    every run-time call. [sanitize] arms the shadow-memory coherence
    sanitizer on the Split configurations (raises
    [Cgcm_support.Errors.Coherence_violation] fail-fast on a coherence
    bug; a no-op for the oracle modes and the paged backend, which have
    one memory and nothing to keep coherent).

    [backend] selects the memory backend for the Split configurations
    ({!Cgcm_unoptimized}/{!Cgcm_optimized}): [Explicit] (default) is the
    CGCM-managed explicit-copy model, [Paged] a single shared address
    space charging touch-driven page-granular migration, under which the
    cgcm.* intrinsics are no-ops. [page_bytes] overrides the migration
    granularity ({!Cgcm_gpusim.Cost_model.t.page_bytes}). Program output
    must be bit-identical across backends. *)
