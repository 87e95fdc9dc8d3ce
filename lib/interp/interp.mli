(** IR interpreter with the split CPU/GPU memory model and the analytic
    cost model attached.

    Execution modes:
    - {!Split} — the real model: kernels execute against device memory,
      all data movement must go through the CGCM run-time (or explicit
      driver calls), and the clock advances per the cost model.
    - {!Unified} — a debugging oracle: one flat memory, kernels read host
      memory directly, [cgcm.*] intrinsics are identity/no-ops, kernel
      work is charged as CPU time. Every transformed program must produce
      the same observable output under [Unified] as the untransformed
      program — the differential tests lean on this. It is also the
      sequential baseline for programs with explicitly written kernels.
    - {!Inspector_executor} — the idealized baseline of Section 6.3: an
      oracle scheduler, one byte transferred per accessed allocation unit
      (batched into one DMA per direction per launch), a sequential
      inspection pass before every launch, fully cyclic synchronisation.
      Runs on the plain DOALL-parallelized module with no management.

    {!run} resolves [config.mode] and [config.backend] once into one
    communication strategy: [Unified], [Inspector] (inspector-executor),
    [Explicit] ([Split] with the [Explicit] backend) or [Paged] ([Split]
    with the [Paged] backend). The backend only matters under [Split]:
    [seq+paged], [ie+paged] and [unified+paged] run as the bare mode. *)

module Ir = Cgcm_ir.Ir
module Memspace = Cgcm_memory.Memspace
module Device = Cgcm_gpusim.Device
module Trace = Cgcm_gpusim.Trace
module Cost_model = Cgcm_gpusim.Cost_model
module Faults = Cgcm_gpusim.Faults
module Runtime = Cgcm_runtime.Runtime
module Mem_backend = Cgcm_runtime.Mem_backend
module Paged = Cgcm_runtime.Paged

exception Exec_error of string
(** Raised on dynamic errors the memory model does not already catch:
    division by zero, type confusion (float used as pointer), calls to
    unknown functions, fuel exhaustion, arity mismatches. *)

type mode = Split | Unified | Inspector_executor

(** Execution engines:
    - {!Closures} — the default: each function is pre-decoded once per
      run into arrays of closures (threaded-code style) with operand
      shapes, binop/unop dispatch, and callee lookups resolved at decode
      time; loads and stores cache a validated block handle per site.
    - {!Tree_walk} — the original AST interpreter, kept for differential
      testing: both engines must produce bit-identical outputs, stats,
      and traces on every program.
    - {!Parallel} — the closure engine plus a persistent domain pool
      (see {!Cgcm_support.Pool}): each eligible kernel launch statically
      chunks its DOALL trip count across [config.jobs] domains, each
      with per-domain closure instantiations, and a join barrier merges
      shard state in iteration order — outputs, stats, traces and
      simulated timelines stay bit-identical to {!Closures}. Launches
      below the {!Cost_model.t.par_min_trip} threshold, kernels the
      static shardability check rejects, and everything outside kernels
      run on the sequential closure path. *)
type engine = Closures | Tree_walk | Parallel

type config = {
  mode : mode;
  cost : Cost_model.t;
  trace : bool;  (** record a {!Trace.t} of transfers/kernels/stalls *)
  inspector_fraction : float;
      (** fraction of kernel work the sequential inspector replays *)
  fuel : int;  (** dynamic instruction budget; guards infinite loops *)
  profile : bool;  (** collect per-function instruction counts *)
  engine : engine;
  dirty_spans : bool;
      (** run-time transfers only dirty spans instead of whole units *)
  faults : Faults.spec option;
      (** deterministic driver fault plan ([None] = infallible driver);
          the run-time recovers via eviction, retry and CPU fallback *)
  paranoid : bool;
      (** re-run {!Runtime.check_invariants} after every run-time call *)
  sanitize : bool;
      (** shadow-memory coherence sanitizer: mirror every allocation unit
          with an independent byte-version map and raise
          {!Cgcm_support.Errors.Coherence_violation} fail-fast on stale
          reads, lost updates, premature releases and double frees.
          It exists only under the explicit strategy ({!Split} with the
          [Explicit] backend); the oracle modes and paging have one
          memory and nothing to check, so the flag is ignored there. *)
  jobs : int;
      (** {!Parallel} engine only: domains executing kernel launches;
          0 (the default) resolves via [CGCM_JOBS] then
          [Domain.recommended_domain_count]. [jobs = 1] selects the
          exact sequential closure path. *)
  backend : Mem_backend.kind;
      (** Memory backend, {!Split} mode only: with {!Unified} or
          {!Inspector_executor} it is ignored and the run is the bare
          mode. [Explicit] (the default) is the CGCM-managed
          split-memory explicit-copy model.
          [Paged] is a single shared address space with touch-driven
          page-granular migration (managed memory): the [cgcm.*]
          intrinsics become no-ops and all communication cost comes
          from page faults priced by
          {!Cost_model.t.page_bytes}/[page_fault_cycles]. Outputs must
          be bit-identical across backends; only the timeline and
          transfer accounting differ. Not to be confused with the
          {!Unified} {e mode}, the zero-cost address-space oracle used
          for differential testing. *)
}

val default_config : config

type result = {
  exit_code : int64;
  output : string;  (** everything the program printed *)
  wall : float;  (** total simulated cycles, including the final sync *)
  cpu_compute : float;  (** cycles spent in interpreted CPU instructions *)
  gpu : float;  (** device busy cycles in kernels *)
  comm : float;  (** cycles spent in CPU-GPU transfers *)
  sync : float;  (** CPU cycles stalled on the device *)
  cpu_insts : int;
  kernel_insts : int;
  dev_stats : Device.stats;
  rt_stats : Runtime.stats;
  leaks : Runtime.leak_report;
      (** device residency at program exit: non-global resident units and
          live driver-heap blocks must both be zero for a leak-free run *)
  dev_peak_bytes : int;  (** high-water mark of device memory use *)
  trace : Trace.t;
  profile : (string * int) list;
      (** per-function dynamic instruction counts, descending; empty
          unless [config.profile] *)
  san_report : Cgcm_sanitizer.Sanitizer.report option;
      (** coherence-sanitizer statistics (redundant transfers, live
          units); present iff [config.sanitize] ran *)
  page_stats : Paged.stats option;
      (** page-migration accounting (touches, faults and migrated bytes
          per direction); present iff the paged backend ran *)
}

val run : ?config:config -> Ir.modul -> result
(** Load the module's globals (registering each with the run-time, the
    compiler's declareGlobal calls), execute [main], and account timing
    per the configuration. *)
