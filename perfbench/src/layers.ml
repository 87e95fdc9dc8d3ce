(* Per-layer metrics of a traced run: span self times per layer plus
   the counts each layer reports at the same boundaries. *)

module Interp = Cgcm_interp.Interp
module Runtime = Cgcm_runtime.Runtime
module Paged = Cgcm_runtime.Paged
module Device = Cgcm_gpusim.Device

type acc = {
  mutable compiles : int;
  mutable kernels : int;
  mutable ir_lowered : int;
  mutable pass_runs : int;
  mutable ir_final : int;
  mutable rtcalls : int;
  mutable an_hits : int;
  mutable an_misses : int;
  mutable runs : int;
  mutable cpu_insts : int;
  mutable kernel_insts : int;
  mutable map_calls : int;
  mutable unmap_calls : int;
  mutable release_calls : int;
  mutable skipped_copies : int;
  mutable bytes_saved : int;
  mutable paged_runs : int;
  mutable touches : int;
  mutable faults : int;
  mutable migrated : int;
  mutable htod : int;
  mutable dtoh : int;
  mutable transfers : int;
  mutable launches : int;
  mutable cpu_cycles : float;
  mutable gpu_cycles : float;
  mutable comm_cycles : float;
  mutable sync_cycles : float;
  mutable dev_peak : int;
}

let create () =
  {
    compiles = 0; kernels = 0; ir_lowered = 0; pass_runs = 0; ir_final = 0; rtcalls = 0;
    an_hits = 0; an_misses = 0; runs = 0; cpu_insts = 0; kernel_insts = 0; map_calls = 0;
    unmap_calls = 0; release_calls = 0; skipped_copies = 0; bytes_saved = 0; paged_runs = 0;
    touches = 0; faults = 0; migrated = 0; htod = 0; dtoh = 0; transfers = 0; launches = 0;
    cpu_cycles = 0.0; gpu_cycles = 0.0; comm_cycles = 0.0; sync_cycles = 0.0; dev_peak = 0;
  }

let add_compile a (c : Ops.compiled) =
  a.compiles <- a.compiles + 1;
  a.kernels <- a.kernels + c.Ops.kernels;
  a.ir_lowered <- a.ir_lowered + c.Ops.ir_instrs_lowered;
  a.pass_runs <- a.pass_runs + c.Ops.pass_runs;
  a.ir_final <- a.ir_final + c.Ops.ir_instrs;
  a.rtcalls <- a.rtcalls + c.Ops.rtcalls;
  a.an_hits <- a.an_hits + c.Ops.analysis_hits;
  a.an_misses <- a.an_misses + c.Ops.analysis_misses

let add_run a (r : Interp.result) =
  let rt = r.Interp.rt_stats and d = r.Interp.dev_stats in
  a.runs <- a.runs + 1;
  a.cpu_insts <- a.cpu_insts + r.Interp.cpu_insts;
  a.kernel_insts <- a.kernel_insts + r.Interp.kernel_insts;
  a.map_calls <- a.map_calls + rt.Runtime.map_calls + rt.Runtime.map_array_calls;
  a.unmap_calls <- a.unmap_calls + rt.Runtime.unmap_calls;
  a.release_calls <- a.release_calls + rt.Runtime.release_calls;
  a.skipped_copies <- a.skipped_copies + rt.Runtime.skipped_copies;
  a.bytes_saved <- a.bytes_saved + rt.Runtime.bytes_saved;
  (match r.Interp.page_stats with
  | Some p ->
    a.paged_runs <- a.paged_runs + 1;
    a.touches <- a.touches + p.Paged.touches;
    a.faults <- a.faults + p.Paged.faults_to_dev + p.Paged.faults_to_host;
    a.migrated <- a.migrated + p.Paged.bytes_to_dev + p.Paged.bytes_to_host
  | None -> ());
  a.htod <- a.htod + d.Device.htod_bytes;
  a.dtoh <- a.dtoh + d.Device.dtoh_bytes;
  a.transfers <- a.transfers + d.Device.htod_count + d.Device.dtoh_count;
  a.launches <- a.launches + d.Device.launches;
  a.cpu_cycles <- a.cpu_cycles +. r.Interp.cpu_compute;
  a.gpu_cycles <- a.gpu_cycles +. r.Interp.gpu;
  a.comm_cycles <- a.comm_cycles +. r.Interp.comm;
  a.sync_cycles <- a.sync_cycles +. r.Interp.sync;
  a.dev_peak <- max a.dev_peak r.Interp.dev_peak_bytes

let pass_names = List.map Ops.pass_metric_name Cgcm_transform.Pass.all

(* Serve-layer inputs measured outside the span tree. *)
type serve = {
  exec_ms_p50 : float;
  overhead_ms_p50 : float;
  cache_hit_ratio : float;
  compiles : int;
  journal_appends : int;
  journal_fsyncs : int;
}

(* Every per-layer metric, in a fixed order, as (name, value, unit).
   [na] lists the names that do not apply to this workload; they read
   0. *)
let metrics ~(spans : Span.t list) ~(acc : acc) ~(serve : serve option)
    ~(trace_overhead_pct : float option) : (string * float * string) list * string list =
  let self = Span.self_times spans in
  let ms name = 1000.0 *. Option.value (List.assoc_opt name self) ~default:0.0 in
  let n x = float_of_int x in
  let exec_s = ms "interp.run" /. 1000.0 in
  let na = ref [] in
  let when_ ok names = if not ok then na := !na @ names in
  let compiled = acc.compiles > 0 and ran = acc.runs > 0 in
  let explicit_runs = acc.runs - acc.paged_runs in
  when_ compiled [ "frontend"; "transform"; "analysis" ];
  when_ ran [ "interp"; "gpusim"; "sim"; "memory" ];
  when_ (explicit_runs > 0) [ "runtime" ];
  when_ (acc.paged_runs > 0) [ "paged" ];
  when_ (serve <> None) [ "serve" ];
  when_ (trace_overhead_pct <> None) [ "trace" ];
  let s = Option.value serve
      ~default:{ exec_ms_p50 = 0.0; overhead_ms_p50 = 0.0; cache_hit_ratio = 0.0; compiles = 0;
                 journal_appends = 0; journal_fsyncs = 0 }
  in
  let rows =
    [
      ("frontend.parse_ms", ms "frontend.parse", "ms");
      ("frontend.doall_ms", ms "frontend.doall", "ms");
      ("frontend.lower_ms", ms "frontend.lower", "ms");
      ("frontend.kernels", n acc.kernels, "count");
      ("frontend.ir_instrs", n acc.ir_lowered, "count");
    ]
    @ List.map (fun p -> ("transform." ^ p ^ "_ms", ms ("transform." ^ p), "ms")) pass_names
    @ [
        ("transform.framework_ms", ms "transform.run_plan", "ms");
        ("transform.pass_runs", n acc.pass_runs, "count");
        ("transform.ir_instrs", n acc.ir_final, "count");
        ("transform.rtcalls", n acc.rtcalls, "count");
        ("analysis.hits", n acc.an_hits, "count");
        ("analysis.misses", n acc.an_misses, "count");
        ("interp.exec_ms", ms "interp.run", "ms");
        ("interp.cpu_insts", n acc.cpu_insts, "count");
        ("interp.kernel_insts", n acc.kernel_insts, "count");
        ( "interp.minst_per_s",
          (if exec_s > 0.0 then n (acc.cpu_insts + acc.kernel_insts) /. exec_s /. 1e6 else 0.0),
          "Minst/s" );
        ("runtime.map_calls", n acc.map_calls, "count");
        ("runtime.unmap_calls", n acc.unmap_calls, "count");
        ("runtime.release_calls", n acc.release_calls, "count");
        ("runtime.skipped_copies", n acc.skipped_copies, "count");
        ("runtime.bytes_saved", n acc.bytes_saved, "bytes");
        ("paged.touches", n acc.touches, "count");
        ("paged.faults", n acc.faults, "count");
        ("paged.migrated_bytes", n acc.migrated, "bytes");
        ("gpusim.htod_bytes", n acc.htod, "bytes");
        ("gpusim.dtoh_bytes", n acc.dtoh, "bytes");
        ("gpusim.transfers", n acc.transfers, "count");
        ("gpusim.launches", n acc.launches, "count");
        ("sim.cpu_cycles", acc.cpu_cycles, "cycles");
        ("sim.gpu_cycles", acc.gpu_cycles, "cycles");
        ("sim.comm_cycles", acc.comm_cycles, "cycles");
        ("sim.sync_cycles", acc.sync_cycles, "cycles");
        ("memory.dev_peak_bytes", n acc.dev_peak, "bytes");
        ("serve.exec_ms_p50", s.exec_ms_p50, "ms");
        ("serve.overhead_ms_p50", s.overhead_ms_p50, "ms");
        ("serve.cache_hit_ratio", s.cache_hit_ratio, "ratio");
        ("serve.compiles", n s.compiles, "count");
        ("serve.journal_appends", n s.journal_appends, "count");
        ("serve.journal_fsyncs", n s.journal_fsyncs, "count");
        ("serve.decode_ms", ms "serve.decode", "ms");
        ("serve.submit_ms", ms "serve.submit", "ms");
        ("serve.step_ms", ms "serve.step", "ms");
        ("serve.encode_ms", ms "serve.encode", "ms");
        ("trace.overhead_pct", Option.value trace_overhead_pct ~default:0.0, "%");
      ]
  in
  let layer name = String.sub name 0 (String.index name '.') in
  let na_names = List.filter_map (fun (m, _, _) -> if List.mem (layer m) !na then Some m else None) rows in
  (rows, na_names)
