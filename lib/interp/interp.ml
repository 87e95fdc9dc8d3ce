(* IR interpreter with a split CPU/GPU memory model and the analytic cost
   model attached.

   Three execution modes ([config.mode]):
   - [Split]   the real model: kernels execute against device memory, all
               data movement must go through the CGCM run-time (or explicit
               driver calls), and the clock advances per the cost model.
   - [Unified] a debugging oracle: one flat memory, kernels read host
               memory directly, cgcm.* intrinsics are identity/no-ops.
               Every transformed program must produce the same observable
               output under [Unified] as the untransformed program — the
               differential tests lean on this.
   - [Inspector_executor] the idealized baseline of Section 6.3 (see the
               [mode] type below).

   [run] resolves the mode and the memory backend once into one
   communication strategy (the [strategy] type below); every site that
   depends on how data moves matches that one value.

   Three execution engines:
   - [Closures]  the default: each function is pre-decoded once per run
                 into an array of closures (threaded-code style) with the
                 operand shapes, the binop/unop dispatch, and the callee
                 lookups resolved at decode time. Loads and stores hold a
                 per-site block handle so repeated accesses to the same
                 allocation unit skip the greatest-leq lookup and the span
                 check entirely (Memspace.handle_valid).
   - [Tree_walk] the original AST interpreter, kept for differential
                 testing: both engines must produce bit-identical outputs,
                 stats, and traces on every program.
   - [Parallel]  the closure engine plus a host-side domain pool for
                 kernel launches: DOALL iterations are independent by
                 construction (that is what makes them GPU-legal), so a
                 launch's trip count is statically chunked across
                 [config.jobs] domains, each executing its contiguous
                 slice on a private shard machine with its own decoded
                 closures; the join barrier merges shard state back in
                 shard (= iteration) order, keeping results bit-identical
                 to [Closures]. See exec_launch_parallel below. *)

module Ir = Cgcm_ir.Ir
module Memspace = Cgcm_memory.Memspace
module Device = Cgcm_gpusim.Device
module Trace = Cgcm_gpusim.Trace
module Cost_model = Cgcm_gpusim.Cost_model
module Faults = Cgcm_gpusim.Faults
module Runtime = Cgcm_runtime.Runtime
module Errors = Cgcm_support.Errors
module Sanitizer = Cgcm_sanitizer.Sanitizer
module Modref = Cgcm_analysis.Modref
module Pool = Cgcm_support.Pool
module Mem_backend = Cgcm_runtime.Mem_backend
module Paged = Cgcm_runtime.Paged

exception Exec_error of string

let error fmt = Fmt.kstr (fun s -> raise (Exec_error s)) fmt

(* - [Inspector_executor] models the idealized baseline of Section 6.3:
     an oracle scheduler, exactly one byte transferred per accessed
     allocation unit, a sequential inspection pass before every launch,
     and fully cyclic (synchronous) communication. It runs on the plain
     DOALL-parallelized module, with no CGCM management. *)
type mode = Split | Unified | Inspector_executor

type engine = Closures | Tree_walk | Parallel

type config = {
  mode : mode;
  cost : Cost_model.t;
  trace : bool;
  (* fraction of kernel work the sequential inspector replays on the CPU *)
  inspector_fraction : float;
  (* dynamic instruction budget: guards against infinite loops *)
  fuel : int;
  (* per-function dynamic instruction counts in the result *)
  profile : bool;
  engine : engine;
  (* run-time transfers only dirty spans instead of whole units *)
  dirty_spans : bool;
  (* deterministic driver fault plan (None = infallible driver) *)
  faults : Faults.spec option;
  (* re-check all run-time invariants after every run-time call *)
  paranoid : bool;
  (* shadow-memory coherence sanitizer: mirror every allocation unit
     with a byte-version map and fail fast on stale reads, lost updates,
     premature releases and double frees (explicit strategy only) *)
  sanitize : bool;
  (* Parallel engine only: how many domains execute kernel launches
     (0 = CGCM_JOBS / Domain.recommended_domain_count). With jobs = 1
     the Parallel engine is exactly the sequential closure engine. *)
  jobs : int;
  (* memory backend (Split mode only): [Explicit] is the CGCM-managed
     split-memory model; [Paged] is a single shared address space with
     touch-driven page-granular migration, under which the cgcm.*
     intrinsics are no-ops and all cost comes from page faults. *)
  backend : Mem_backend.kind;
}

let default_config =
  {
    mode = Split;
    cost = Cost_model.default;
    trace = false;
    inspector_fraction = 0.25;
    fuel = 4_000_000_000;
    profile = false;
    engine = Closures;
    dirty_spans = true;
    faults = None;
    paranoid = false;
    sanitize = false;
    jobs = 0;
    backend = Mem_backend.Explicit;
  }

type rtval = VI of int64 | VF of float

(* Shared boxes for the two boolean results: comparisons are a large
   fraction of executed instructions (every loop back-edge), and the
   shared values save an allocation each. *)
let vtrue = VI 1L
let vfalse = VI 0L

(* Pre-box an immediate operand at decode time. *)
let imm_val = function
  | Ir.Imm_int i -> VI i
  | Ir.Imm_float x -> VF x
  | Ir.Reg _ | Ir.Global _ -> assert false

let as_int = function
  | VI i -> i
  | VF _ -> error "type confusion: float used as integer/pointer"

let as_float = function
  | VF f -> f
  | VI _ -> error "type confusion: integer used as float"

type result = {
  exit_code : int64;
  output : string;
  wall : float;  (* total simulated cycles, including the final sync *)
  cpu_compute : float;  (* cycles spent in interpreted CPU instructions *)
  gpu : float;  (* device busy cycles in kernels *)
  comm : float;  (* cycles spent in CPU-GPU transfers *)
  sync : float;  (* CPU cycles stalled on the device *)
  cpu_insts : int;
  kernel_insts : int;
  dev_stats : Device.stats;
  rt_stats : Runtime.stats;
  leaks : Runtime.leak_report;  (* device residency at program exit *)
  dev_peak_bytes : int;  (* high-water mark of device memory *)
  trace : Trace.t;
  profile : (string * int) list;
      (* per-function dynamic instruction counts, descending; empty unless
         config.profile *)
  san_report : Cgcm_sanitizer.Sanitizer.report option;
      (* coherence-sanitizer statistics; present iff config.sanitize ran *)
  page_stats : Paged.stats option;
      (* page-migration accounting; present iff the paged backend ran *)
}

(* Per-call state threaded through compiled closures. *)
type ctx = {
  fr : rtval array;  (* the register frame *)
  lv : float array;
  (* promoted alloca slots, stored as raw IEEE bits (int64 accesses
     reinterpret via Int64.bits_of_float, which is exact) *)
  sp : Memspace.t;  (* memory space of the executing context *)
  mutable ret : rtval option;
  mutable allocas : int list;  (* frame allocation units, freed on exit *)
  mutable registered : int list;  (* declareAlloca registrations to expire *)
}

type cinstr = ctx -> unit

(* A run of instructions whose ticks are batched into one accounting call:
   pure instructions (arithmetic, loads, stores) cannot observe the
   machine's counters, so only call-like instructions — which can flush
   the clock, print, or recurse — bound a run. Each run holds the pure
   prefix plus at most one trailing call-like instruction; [ticks] is the
   instruction count (the last run also carries the terminator's tick).
   Every observation point (flush_time, output, traces) sees counter
   values identical to the per-instruction schedule. *)
type crun = { ticks : int; ops : cinstr array }

type cblock = {
  runs : crun array;
  (* returns the next block index, or -1 after storing into ctx.ret *)
  ct : ctx -> int;
}

type cfunc = { cfn : Ir.func; cblocks : cblock array; nlocals : int }

(* The run's communication strategy: [config.mode] × [config.backend],
   resolved once by [run]. The backend only matters under [Split], so
   seq+paged, ie+paged and unified+paged run as the bare mode.
   - [Unified]   one flat memory: the cgcm.* intrinsics are identities
                 and kernel work is CPU work.
   - [Inspector] the inspector-executor baseline: kernels run on host
                 memory while the access hook records the units they
                 touch; every launch then pays a sequential inspection
                 and one-byte-per-unit oracle transfers.
   - [Explicit]  CGCM's split memories: the run-time's map/unmap/release
                 move the data and kernels run against device memory.
   - [Paged]     one shared address space with touch-driven page
                 migration: the cgcm.* intrinsics are identities and
                 every access pays a Paged.touch. *)
type strategy =
  | Unified
  | Inspector
  | Explicit of Runtime.t
  | Paged of Paged.t

type machine = {
  m : Ir.modul;
  host : Memspace.t;
  dev : Device.t;
  (* run-time statistics, kept under every strategy; only [Explicit]
     drives the run-time's management surface *)
  rt : Runtime.t;
  strat : strategy;
  engine : engine;
  cost : Cost_model.t;
  funcs : (string, Ir.func) Hashtbl.t;
  decoded : (string, cfunc) Hashtbl.t;
  globals_host : (string, int) Hashtbl.t;
  out : Buffer.t;
  mutable now : float;
  mutable pending_insts : int;  (* CPU instructions not yet folded into now *)
  mutable cpu_insts : int;
  mutable kernel_insts : int;
  mutable in_kernel : bool;
  mutable fuel : int;  (* dynamic instruction budget; guards infinite loops *)
  inspector_fraction : float;
  (* Inspector-executor: allocation units touched by the current kernel,
     base address -> was written. Units allocated after [threshold]
     (thread-local stack slots) are not program data and are excluded. *)
  mutable track_units : (int, bool) Hashtbl.t option;
  mutable track_threshold : int;
  (* profiling *)
  profile_on : bool;
  profile_counts : (string, int ref) Hashtbl.t;
  mutable cur_fn : string;
  (* coherence sanitizer (Explicit strategy + config.sanitize); the same
     instance the device and run-time hooks drive *)
  san : Sanitizer.t option;
  (* per-kernel static read/write sets for the sanitizer's launch hook *)
  rw_cache : (string, Modref.rw) Hashtbl.t;
  (* ---- parallel engine ---- *)
  (* resolved job count: > 1 only for the Parallel engine *)
  jobs : int;
  (* kernel name -> Some (transitively referenced globals) when every
     launch of it may shard across domains, None when it must stay
     sequential (see par_kernel_info) *)
  par_cache : (string, string list option) Hashtbl.t;
  (* persistent per-domain shard machines, grown on demand; each holds
     its own decoded-closure tables, output buffer and dirty log *)
  mutable shards : machine array;
  (* Some on shard machines only: the per-shard deferred dirty-span log,
     replayed at the join. Doubles as the "am I a shard?" flag. *)
  shard_log : Memspace.dirty_log option;
}

let flush_time mc =
  if mc.pending_insts > 0 then begin
    mc.now <- mc.now +. (float_of_int mc.pending_insts *. mc.cost.Cost_model.cpu_cycle);
    mc.pending_insts <- 0
  end

(* Whether kernel instructions count as device work: under [Unified]
   there is no device. *)
let kernels_on_device mc = match mc.strat with Unified -> false | _ -> true

let tick mc =
  mc.fuel <- mc.fuel - 1;
  if mc.fuel <= 0 then error "instruction budget exhausted (infinite loop?)";
  if mc.profile_on then begin
    match Hashtbl.find_opt mc.profile_counts mc.cur_fn with
    | Some r -> incr r
    | None -> Hashtbl.replace mc.profile_counts mc.cur_fn (ref 1)
  end;
  (* In unified mode there is no device: kernel work is CPU work (this is
     what makes it the sequential baseline for explicitly-written
     kernels). *)
  if mc.in_kernel && kernels_on_device mc then
    mc.kernel_insts <- mc.kernel_insts + 1
  else begin
    mc.cpu_insts <- mc.cpu_insts + 1;
    mc.pending_insts <- mc.pending_insts + 1
  end

(* Batched tick for a run of [n] instructions (closure engine). The
   context (kernel vs CPU) cannot change inside a run, so one test
   covers all [n]. *)
let seg_tick mc n =
  mc.fuel <- mc.fuel - n;
  if mc.fuel <= 0 then error "instruction budget exhausted (infinite loop?)";
  if mc.profile_on then begin
    match Hashtbl.find_opt mc.profile_counts mc.cur_fn with
    | Some r -> r := !r + n
    | None -> Hashtbl.replace mc.profile_counts mc.cur_fn (ref n)
  end;
  if mc.in_kernel && kernels_on_device mc then
    mc.kernel_insts <- mc.kernel_insts + n
  else begin
    mc.cpu_insts <- mc.cpu_insts + n;
    mc.pending_insts <- mc.pending_insts + n
  end

(* Run [f] on the explicit run-time with the interpreter's clock threaded
   through it; the other strategies have no run-time work and return
   [default]. The paged strategy still folds pending CPU time at these
   points, as the explicit one does, so both device strategies advance
   the clock in the same steps. *)
let with_runtime mc ~default f =
  match mc.strat with
  | Explicit rt ->
    flush_time mc;
    rt.Runtime.now <- mc.now;
    let r = f rt in
    mc.now <- rt.Runtime.now;
    r
  | Paged _ ->
    flush_time mc;
    default
  | Unified | Inspector -> default

(* The host allocator's wrapper: the new unit enters the allocation map. *)
let register_heap mc ~base ~size =
  match mc.strat with
  | Explicit rt -> Runtime.register_heap rt ~base ~size
  | Unified | Inspector | Paged _ -> ()

(* Frame exit: expire the frame's declareAlloca registrations. *)
let expire_allocas mc bases =
  match mc.strat with
  | Explicit rt -> List.iter (fun base -> Runtime.expire_alloca rt ~base) bases
  | Unified | Inspector | Paged _ -> ()

(* Memory space for the executing context. Only the explicit strategy
   has a separate device memory; under paging kernels read and write
   host memory, and the cost of getting the bytes across shows up as
   page faults. *)
let space mc =
  match mc.strat with
  | Explicit _ when mc.in_kernel -> mc.dev.Device.mem
  | _ -> mc.host

let global_addr mc g =
  match mc.strat with
  | Explicit rt when mc.in_kernel -> begin
    match mc.shard_log with
    | Some _ -> (
      (* Parallel shard: the pre-launch check guarantees every global the
         kernel can reference is already device-resident, so resolution
         is a pure table lookup — the driver and run-time are not
         domain-safe and must not run here. For a resident global the
         sequential path below is equally charge-free, so the timelines
         agree. *)
      match Hashtbl.find_opt mc.dev.Device.globals g with
      | Some a -> a
      | None -> error "parallel shard: global %s not device-resident" g)
    | None ->
      (* Resolve through the run-time so a first touch (or a re-touch
         after an eviction) gets the same OOM recovery as map, and an
         evicted global is refilled from its written-back host copy. *)
      rt.Runtime.now <- mc.now;
      let addr = Runtime.device_global_addr rt g in
      mc.now <- rt.Runtime.now;
      addr
  end
  | _ -> begin
    match Hashtbl.find_opt mc.globals_host g with
    | Some a -> a
    | None -> error "unknown global %s" g
  end

(* ------------------------------------------------------------------ *)
(* Program loading: allocate and initialise globals, register them with
   the run-time (the compiler's declareGlobal calls before main).        *)

let load_globals mc =
  List.iter
    (fun (g : Ir.global) ->
      let base = Memspace.alloc ~tag:("g:" ^ g.gname) mc.host g.gsize in
      Hashtbl.replace mc.globals_host g.gname base)
    mc.m.Ir.globals;
  (* Initialise after all bases are known (pointer initialisers). *)
  List.iter
    (fun (g : Ir.global) ->
      let base = Hashtbl.find mc.globals_host g.gname in
      match g.ginit with
      | Ir.Zeroed -> ()
      | Ir.I64s a ->
        Array.iteri (fun i v -> Memspace.store_i64 mc.host (base + (8 * i)) v) a
      | Ir.F64s a ->
        Array.iteri (fun i v -> Memspace.store_f64 mc.host (base + (8 * i)) v) a
      | Ir.Str s -> Memspace.store_string mc.host base s
      | Ir.Ptrs names ->
        Array.iteri
          (fun i n ->
            let v =
              if n = "" then 0L
              else Int64.of_int (Hashtbl.find mc.globals_host n)
            in
            Memspace.store_i64 mc.host (base + (8 * i)) v)
          names)
    mc.m.Ir.globals;
  List.iter
    (fun (g : Ir.global) ->
      let base = Hashtbl.find mc.globals_host g.gname in
      Runtime.declare_global mc.rt ~name:g.gname ~base ~size:g.gsize
        ~read_only:g.gread_only)
    mc.m.Ir.globals;
  (* Paged strategy: globals carry load-time initial values, so their
     backing pages start host-resident (free, like the host arrays
     cudaMallocManaged zero-fills). *)
  match mc.strat with
  | Paged pg ->
    List.iter
      (fun (g : Ir.global) ->
        let base = Hashtbl.find mc.globals_host g.gname in
        Paged.place_host pg ~addr:base ~len:g.gsize)
      mc.m.Ir.globals
  | Unified | Inspector | Explicit _ -> ()

(* Paged strategy: note an access to [addr, addr+len) and charge any
   host-side migration synchronously. Kernel-side fault time pools
   inside [pg] until the launch ends (Paged.flush_launch). *)
let paged_touch mc pg ~addr ~len =
  if mc.in_kernel then ignore (Paged.touch pg ~kernel:true ~addr ~len)
  else begin
    let cyc = Paged.touch pg ~kernel:false ~addr ~len in
    if cyc > 0.0 then begin
      (* the migrated pages may hold kernel output: stall for the
         device, then pay the migration before the access completes *)
      flush_time mc;
      mc.now <- Device.sync mc.dev ~now:mc.now;
      Paged.note_host_migration pg ~start:mc.now ~cycles:cyc
        ~pages:(Paged.last_host_fault_pages pg);
      mc.now <- mc.now +. cyc
    end
  end

(* A non-load/store access (driver copies, string builtins): only the
   paged strategy observes it. *)
let touch mc ~addr ~len =
  match mc.strat with
  | Paged pg -> paged_touch mc pg ~addr ~len
  | Unified | Inspector | Explicit _ -> ()

(* The per-access hook of the run's strategy, picked once per decoded
   load/store site (and once per call in the tree walker). *)
type hook =
  | No_hook  (* Unified; Explicit without the sanitizer *)
  | Track  (* Inspector: record the units the current kernel touches *)
  | Check of Sanitizer.t  (* Explicit under the coherence sanitizer *)
  | Touch of Paged.t  (* Paged: page-granular migration *)

let access_hook mc =
  match (mc.strat, mc.san) with
  | Inspector, _ -> Track
  | Paged pg, _ -> Touch pg
  | Explicit _, Some s -> Check s
  | Explicit _, None | Unified, _ -> No_hook

(* Run [hook] for an access of [len] bytes at [addr], before any byte
   moves: where the tree engine checks and the hardware would fault (the
   read of a stale byte is the sanitizer's violation). [h] is the site's
   cached handle (null in the tree walker); when it covers the access,
   tracking reuses its base instead of an index lookup. Inspector
   tracking records base -> written for units allocated before the
   launch; later units are kernel stack slots, not program data. *)
let[@inline] run_hook mc hook ~write sp h addr len =
  match hook with
  | No_hook -> ()
  | Track -> (
    match mc.track_units with
    | None -> ()
    | Some tbl ->
      let base =
        if Memspace.handle_valid h sp addr len then Memspace.handle_base h
        else fst (Memspace.unit_bounds sp addr)
      in
      if base < mc.track_threshold then
        if write then Hashtbl.replace tbl base true
        else if not (Hashtbl.mem tbl base) then Hashtbl.replace tbl base false)
  | Check s ->
    if write then
      Sanitizer.on_store s ~addr ~len ~fn:mc.cur_fn ~kernel:mc.in_kernel
    else Sanitizer.on_load s ~addr ~len ~fn:mc.cur_fn ~kernel:mc.in_kernel
  | Touch pg -> paged_touch mc pg ~addr ~len

(* A load/store site's block handle: revalidate the cached one, or
   resolve and span-check afresh (faulting as the checked accessors do)
   and cache the result. *)
let[@inline] acquire cache (c : ctx) addr len what =
  let h = !cache in
  if Memspace.handle_valid h c.sp addr len then h
  else begin
    let h = Memspace.acquire_handle c.sp addr len what in
    cache := h;
    h
  end

(* ------------------------------------------------------------------ *)
(* Instruction evaluation (tree-walking engine)                         *)

let eval_binop op a b =
  let open Ir in
  let i op2 = VI (op2 (as_int a) (as_int b)) in
  let f op2 = VF (op2 (as_float a) (as_float b)) in
  let icmp op2 = VI (if op2 (compare (as_int a) (as_int b)) 0 then 1L else 0L) in
  (* direct float operators: IEEE semantics (NaN <> NaN), unlike the
     polymorphic compare *)
  let fcmp op2 = VI (if op2 (as_float a) (as_float b) then 1L else 0L) in
  match op with
  | Add -> i Int64.add
  | Sub -> i Int64.sub
  | Mul -> i Int64.mul
  | Div ->
    if as_int b = 0L then error "integer division by zero";
    i Int64.div
  | Rem ->
    if as_int b = 0L then error "integer remainder by zero";
    i Int64.rem
  | And -> i Int64.logand
  | Or -> i Int64.logor
  | Xor -> i Int64.logxor
  | Shl -> VI (Int64.shift_left (as_int a) (Int64.to_int (as_int b) land 63))
  | Shr ->
    VI (Int64.shift_right_logical (as_int a) (Int64.to_int (as_int b) land 63))
  | Fadd -> f ( +. )
  | Fsub -> f ( -. )
  | Fmul -> f ( *. )
  | Fdiv -> f ( /. )
  | Eq -> icmp ( = )
  | Ne -> icmp ( <> )
  | Lt -> icmp ( < )
  | Le -> icmp ( <= )
  | Gt -> icmp ( > )
  | Ge -> icmp ( >= )
  | Feq -> fcmp (fun (x : float) y -> x = y)
  | Fne -> fcmp (fun (x : float) y -> x <> y)
  | Flt -> fcmp (fun (x : float) y -> x < y)
  | Fle -> fcmp (fun (x : float) y -> x <= y)
  | Fgt -> fcmp (fun (x : float) y -> x > y)
  | Fge -> fcmp (fun (x : float) y -> x >= y)

let eval_unop op a =
  let open Ir in
  match op with
  | Neg -> VI (Int64.neg (as_int a))
  | Not -> VI (Int64.lognot (as_int a))
  | Fneg -> VF (-.as_float a)
  | Int_to_float -> VF (Int64.to_float (as_int a))
  | Float_to_int -> VI (Int64.of_float (as_float a))

let math1 name =
  match name with
  | "sqrt" -> Some sqrt
  | "exp" -> Some exp
  | "log" -> Some log
  | "fabs" -> Some abs_float
  | "floor" -> Some floor
  | "ceil" -> Some ceil
  | "sin" -> Some sin
  | "cos" -> Some cos
  | "tan" -> Some tan
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Decode-time operator specialisation (closure engine). Each function
   matches its constructor exactly once, at decode; the returned closure
   performs only the arithmetic. Operand evaluation order mirrors the
   tree engine (right-to-left, as in OCaml application), so type-
   confusion faults surface identically in both engines. *)

let bin_fn (op : Ir.binop) : rtval -> rtval -> rtval =
  let open Ir in
  match op with
  | Add -> fun a b -> let y = as_int b in let x = as_int a in VI (Int64.add x y)
  | Sub -> fun a b -> let y = as_int b in let x = as_int a in VI (Int64.sub x y)
  | Mul -> fun a b -> let y = as_int b in let x = as_int a in VI (Int64.mul x y)
  | Div ->
    fun a b ->
      if as_int b = 0L then error "integer division by zero";
      let y = as_int b in let x = as_int a in VI (Int64.div x y)
  | Rem ->
    fun a b ->
      if as_int b = 0L then error "integer remainder by zero";
      let y = as_int b in let x = as_int a in VI (Int64.rem x y)
  | And -> fun a b -> let y = as_int b in let x = as_int a in VI (Int64.logand x y)
  | Or -> fun a b -> let y = as_int b in let x = as_int a in VI (Int64.logor x y)
  | Xor -> fun a b -> let y = as_int b in let x = as_int a in VI (Int64.logxor x y)
  | Shl ->
    fun a b ->
      let s = Int64.to_int (as_int b) land 63 in
      VI (Int64.shift_left (as_int a) s)
  | Shr ->
    fun a b ->
      let s = Int64.to_int (as_int b) land 63 in
      VI (Int64.shift_right_logical (as_int a) s)
  | Fadd -> fun a b -> let y = as_float b in let x = as_float a in VF (x +. y)
  | Fsub -> fun a b -> let y = as_float b in let x = as_float a in VF (x -. y)
  | Fmul -> fun a b -> let y = as_float b in let x = as_float a in VF (x *. y)
  | Fdiv -> fun a b -> let y = as_float b in let x = as_float a in VF (x /. y)
  | Eq -> fun a b -> let y = as_int b in let x = as_int a in if Int64.equal x y then vtrue else vfalse
  | Ne -> fun a b -> let y = as_int b in let x = as_int a in if Int64.equal x y then vfalse else vtrue
  | Lt -> fun a b -> let y = as_int b in let x = as_int a in if Int64.compare x y < 0 then vtrue else vfalse
  | Le -> fun a b -> let y = as_int b in let x = as_int a in if Int64.compare x y <= 0 then vtrue else vfalse
  | Gt -> fun a b -> let y = as_int b in let x = as_int a in if Int64.compare x y > 0 then vtrue else vfalse
  | Ge -> fun a b -> let y = as_int b in let x = as_int a in if Int64.compare x y >= 0 then vtrue else vfalse
  | Feq -> fun a b -> let y = as_float b in let x = as_float a in if x = y then vtrue else vfalse
  | Fne -> fun a b -> let y = as_float b in let x = as_float a in if x <> y then vtrue else vfalse
  | Flt -> fun a b -> let y = as_float b in let x = as_float a in if x < y then vtrue else vfalse
  | Fle -> fun a b -> let y = as_float b in let x = as_float a in if x <= y then vtrue else vfalse
  | Fgt -> fun a b -> let y = as_float b in let x = as_float a in if x > y then vtrue else vfalse
  | Fge -> fun a b -> let y = as_float b in let x = as_float a in if x >= y then vtrue else vfalse

let un_fn (op : Ir.unop) : rtval -> rtval =
  let open Ir in
  match op with
  | Neg -> fun a -> VI (Int64.neg (as_int a))
  | Not -> fun a -> VI (Int64.lognot (as_int a))
  | Fneg -> fun a -> VF (-.as_float a)
  | Int_to_float -> fun a -> VF (Int64.to_float (as_int a))
  | Float_to_int -> fun a -> VI (Int64.of_float (as_float a))

(* Operator classification for the expression folder: operand and result
   types are a function of the operator alone, so the folder can build
   unboxed int64/float expression chains at decode time. Div and Rem keep
   their own kinds because their zero check sits between the two operand
   unboxings in [bin_fn] and the fault order must not change. *)
type bkind =
  | KI of (int64 -> int64 -> int64)  (* int op int -> int *)
  | KIC of (int64 -> int64 -> bool)  (* int comparison *)
  | KF of (float -> float -> float)  (* float op float -> float *)
  | KFC of (float -> float -> bool)  (* float comparison *)
  | KDiv
  | KRem

let bin_kind (op : Ir.binop) : bkind =
  let open Ir in
  match op with
  | Add -> KI Int64.add
  | Sub -> KI Int64.sub
  | Mul -> KI Int64.mul
  | Div -> KDiv
  | Rem -> KRem
  | And -> KI Int64.logand
  | Or -> KI Int64.logor
  | Xor -> KI Int64.logxor
  | Shl -> KI (fun x y -> Int64.shift_left x (Int64.to_int y land 63))
  | Shr -> KI (fun x y -> Int64.shift_right_logical x (Int64.to_int y land 63))
  | Fadd -> KF ( +. )
  | Fsub -> KF ( -. )
  | Fmul -> KF ( *. )
  | Fdiv -> KF ( /. )
  | Eq -> KIC Int64.equal
  | Ne -> KIC (fun x y -> not (Int64.equal x y))
  | Lt -> KIC (fun x y -> Int64.compare x y < 0)
  | Le -> KIC (fun x y -> Int64.compare x y <= 0)
  | Gt -> KIC (fun x y -> Int64.compare x y > 0)
  | Ge -> KIC (fun x y -> Int64.compare x y >= 0)
  | Feq -> KFC (fun x y -> x = y)
  | Fne -> KFC (fun x y -> x <> y)
  | Flt -> KFC (fun x y -> x < y)
  | Fle -> KFC (fun x y -> x <= y)
  | Fgt -> KFC (fun x y -> x > y)
  | Fge -> KFC (fun x y -> x >= y)

(* Names the run-time resolves before user functions (dispatch_call's
   match order): a call to one of these never binds to a user function
   of the same name. *)
let builtin_names =
  [
    "malloc"; "calloc"; "realloc"; "free";
    "gpu_malloc"; "gpu_free"; "gpu_memcpy_h2d"; "gpu_memcpy_d2h";
    "strlen"; "print_i64"; "print_f64"; "prints"; "pow";
  ]

let is_builtin name =
  List.mem name builtin_names || math1 name <> None
  || Ir.Intrinsic.is_cgcm name

(* ------------------------------------------------------------------ *)
(* Static per-function analysis, shared by the closure decoder and the
   parallel engine's shardability check.

   Per-register use counts over the whole function drive the expression
   folder: a pure def read exactly once can evaluate at its use site
   instead of through the frame. Folding relies on registers being
   single-assignment; the verifier enforces that for compiled modules,
   but hand-written .ir files reach the interpreter unverified, so
   re-check here and fold only when it holds.

   Scalar alloca promotion: an 8-byte-or-larger unregistered alloca
   whose address register is used only as the address of whole-word
   (I64/F64) loads and stores never escapes, never faults, and is
   indistinguishable from a frame slot — so it gets one, skipping the
   memory space entirely. The verifier's def-dominates-use rule means
   the alloca always executes (and zeroes the slot) before any access;
   ticks still count every source instruction, so timing and instruction
   counts are unchanged. Like folding, this needs single-assignment
   registers. *)

type fanalysis = {
  fa_uses : int array;  (* per-register use counts *)
  fa_fold_ok : bool;  (* registers are single-assignment *)
  fa_promo : (int, int) Hashtbl.t;  (* promoted alloca reg -> local slot *)
  fa_nlocals : int;
}

let analyze_func (f : Ir.func) : fanalysis =
  let nregs = max f.Ir.nregs 1 in
  let uses = Array.make nregs 0 in
  let defs = Array.make nregs 0 in
  let single_assign = ref true in
  for i = 0 to min f.Ir.nargs nregs - 1 do
    defs.(i) <- 1
  done;
  Array.iter
    (fun (b : Ir.block) ->
      let see = function
        | Ir.Reg r when r >= 0 && r < nregs -> uses.(r) <- uses.(r) + 1
        | _ -> ()
      in
      List.iter
        (fun i ->
          (match Ir.def_of_instr i with
          | Some d when d >= 0 && d < nregs ->
            defs.(d) <- defs.(d) + 1;
            if defs.(d) > 1 then single_assign := false
          | Some _ -> single_assign := false
          | None -> ());
          List.iter see (Ir.uses_of_instr i))
        b.Ir.instrs;
      List.iter see (Ir.uses_of_term b.Ir.term))
    f.Ir.blocks;
  let fold_ok = !single_assign in
  let promo : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let nlocals = ref 0 in
  if fold_ok then begin
    let cand = Hashtbl.create 8 in
    Array.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun i ->
            match i with
            | Ir.Alloca (d, Ir.Imm_int s, info)
              when (not info.Ir.aregistered) && s >= 8L ->
              Hashtbl.replace cand d ()
            | _ -> ())
          b.Ir.instrs)
      f.Ir.blocks;
    let disq = function Ir.Reg r -> Hashtbl.remove cand r | _ -> () in
    Array.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun i ->
            match i with
            | Ir.Load (_, (Ir.I64 | Ir.F64), Ir.Reg _) -> ()
            | Ir.Store ((Ir.I64 | Ir.F64), Ir.Reg _, v) -> disq v
            | _ -> List.iter disq (Ir.uses_of_instr i))
          b.Ir.instrs;
        List.iter disq (Ir.uses_of_term b.Ir.term))
      f.Ir.blocks;
    Array.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun i ->
            match i with
            | Ir.Alloca (d, _, _) when Hashtbl.mem cand d ->
              Hashtbl.replace promo d !nlocals;
              incr nlocals
            | _ -> ())
          b.Ir.instrs)
      f.Ir.blocks
  end;
  { fa_uses = uses; fa_fold_ok = fold_ok; fa_promo = promo; fa_nlocals = !nlocals }

(* ------------------------------------------------------------------ *)
(* Parallel-engine shardability.

   A kernel may execute across domains only when every iteration's work
   is confined to shard-private state plus race-free shared state:
   frame registers, promoted alloca slots, `Bytes` writes to disjoint
   allocation-unit bytes (the DOALL guarantee), the shard's own output
   buffer, and pure resolution of already-resident module globals.
   Anything that would call into the run-time, the driver, or the host
   allocator mid-kernel — none of which are domain-safe — disqualifies
   the kernel, and its launches take the sequential closure path
   instead. *)

(* Builtins whose kernel-side execution touches only shard-private or
   read-only state: pure math, proportional-work string length, and
   printing into the shard's buffer. *)
let par_safe_builtin name =
  math1 name <> None
  || List.mem name [ "pow"; "strlen"; "print_i64"; "print_f64"; "prints" ]

(* Decide, once per kernel, whether its launches may shard, and collect
   the transitive set of module globals it can reference (each launch
   additionally checks that all of them are device-resident, so shard-
   side resolution never has to allocate). Disqualifiers: any alloca the
   decoder cannot promote to a frame slot (a real alloca mutates the
   shared device memspace), nested launches, and calls to anything but
   par-safe builtins or transitively-shardable user CPU functions. *)
let kernel_shardable ~funcs (f : Ir.func) : string list option =
  let exception Not_par in
  let visited = Hashtbl.create 8 in
  let globals = Hashtbl.create 8 in
  let rec scan (fn : Ir.func) =
    if not (Hashtbl.mem visited fn.Ir.fname) then begin
      Hashtbl.replace visited fn.Ir.fname ();
      let a = analyze_func fn in
      let value = function
        | Ir.Global g -> Hashtbl.replace globals g ()
        | _ -> ()
      in
      Array.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun i ->
              (match i with
              | Ir.Alloca (d, _, _) ->
                if not (Hashtbl.mem a.fa_promo d) then raise Not_par
              | Ir.Launch _ -> raise Not_par
              | Ir.Call (_, name, _) ->
                if par_safe_builtin name then ()
                else if is_builtin name then raise Not_par
                else (
                  match Hashtbl.find_opt funcs name with
                  | Some g when g.Ir.fkind = Ir.Cpu -> scan g
                  | _ -> raise Not_par)
              | _ -> ());
              List.iter value (Ir.uses_of_instr i))
            b.Ir.instrs;
          List.iter value (Ir.uses_of_term b.Ir.term))
        fn.Ir.blocks
    end
  in
  match scan f with
  | () -> Some (Hashtbl.fold (fun g () acc -> g :: acc) globals [])
  | exception Not_par -> None

let par_kernel_info mc (f : Ir.func) : string list option =
  match Hashtbl.find_opt mc.par_cache f.Ir.fname with
  | Some r -> r
  | None ->
    let r = kernel_shardable ~funcs:mc.funcs f in
    Hashtbl.replace mc.par_cache f.Ir.fname r;
    r

(* ------------------------------------------------------------------ *)
(* Execution: the two engines plus the shared call/launch machinery     *)

let rec exec_func mc (f : Ir.func) (args : rtval array) : rtval option =
  if Array.length args <> f.Ir.nargs then
    error "%s called with %d args, expected %d" f.Ir.fname (Array.length args)
      f.Ir.nargs;
  let caller_fn = mc.cur_fn in
  mc.cur_fn <- f.Ir.fname;
  let frame = Array.make (max f.Ir.nregs 1) (VI 0L) in
  Array.blit args 0 frame 0 (Array.length args);
  let frame_allocas = ref [] in
  let registered = ref [] in
  let sp = space mc in
  let hook = access_hook mc in
  let eval = function
    | Ir.Reg r -> frame.(r)
    | Ir.Imm_int i -> VI i
    | Ir.Imm_float x -> VF x
    | Ir.Global g -> VI (Int64.of_int (global_addr mc g))
  in
  let finish () =
    (* Stack frame unwinding: expire declareAlloca registrations, free the
       frame's allocation units. *)
    expire_allocas mc !registered;
    List.iter (fun base -> Memspace.free_local sp base) !frame_allocas
  in
  let rec run_block b =
    let block = f.Ir.blocks.(b) in
    List.iter exec_instr block.Ir.instrs;
    match block.Ir.term with
    | Ir.Br b' ->
      tick mc;
      run_block b'
    | Ir.Cbr (v, b1, b2) ->
      tick mc;
      if as_int (eval v) <> 0L then run_block b1 else run_block b2
    | Ir.Ret v ->
      tick mc;
      Option.map eval v
  and exec_instr i =
    tick mc;
    match i with
    | Ir.Binop (d, op, a, b) -> frame.(d) <- eval_binop op (eval a) (eval b)
    | Ir.Unop (d, op, a) -> frame.(d) <- eval_unop op (eval a)
    | Ir.Load (d, ty, a) -> begin
      let addr = Int64.to_int (as_int (eval a)) in
      run_hook mc hook ~write:false sp Memspace.null_handle addr
        (match ty with Ir.I8 -> 1 | _ -> 8);
      frame.(d) <-
        (match ty with
        | Ir.I8 -> VI (Int64.of_int (Memspace.load_u8 sp addr))
        | Ir.I64 -> VI (Memspace.load_i64 sp addr)
        | Ir.F64 -> VF (Memspace.load_f64 sp addr))
    end
    | Ir.Store (ty, a, v) -> begin
      let addr = Int64.to_int (as_int (eval a)) in
      run_hook mc hook ~write:true sp Memspace.null_handle addr
        (match ty with Ir.I8 -> 1 | _ -> 8);
      match ty with
      | Ir.I8 -> Memspace.store_u8 sp addr (Int64.to_int (as_int (eval v)) land 0xff)
      | Ir.I64 -> Memspace.store_i64 sp addr (as_int (eval v))
      | Ir.F64 -> Memspace.store_f64 sp addr (as_float (eval v))
    end
    | Ir.Alloca (d, size, info) -> begin
      let size = Int64.to_int (as_int (eval size)) in
      let base = Memspace.alloc ~tag:info.Ir.aname sp size in
      frame_allocas := base :: !frame_allocas;
      frame.(d) <- VI (Int64.of_int base);
      if info.Ir.aregistered && not mc.in_kernel then begin
        with_runtime mc ~default:() (fun rt ->
            Runtime.declare_alloca rt ~base ~size);
        registered := base :: !registered
      end
    end
    | Ir.Call (d, name, args) -> begin
      let argv = List.map eval args in
      let res = dispatch_call mc name argv in
      match d with
      | Some d -> frame.(d) <- (match res with Some v -> v | None -> VI 0L)
      | None -> ()
    end
    | Ir.Launch { kernel; trip; args } ->
      exec_launch mc ~kernel ~trip:(Int64.to_int (as_int (eval trip)))
        ~args:(List.map eval args)
  in
  let res =
    try run_block 0
    with e ->
      finish ();
      mc.cur_fn <- caller_fn;
      raise e
  in
  finish ();
  mc.cur_fn <- caller_fn;
  res

and dispatch_call mc name argv : rtval option =
  match (name, argv) with
  | ("malloc" | "calloc"), [ size ] ->
    (* our memory model zero-initialises, so calloc = malloc *)
    let size = Int64.to_int (as_int size) in
    if mc.in_kernel then error "malloc on the device";
    let base = Memspace.alloc ~tag:"heap" mc.host size in
    flush_time mc;
    mc.now <- mc.now +. 100.0;
    register_heap mc ~base ~size;
    Some (VI (Int64.of_int base))
  | "realloc", [ p; size ] ->
    (* the run-time wrapper: the old unit leaves the allocation map, the
       new one enters it (Section 3.1) *)
    if mc.in_kernel then error "realloc on the device";
    let old_base = Int64.to_int (as_int p) in
    let size = Int64.to_int (as_int size) in
    let base = Memspace.alloc ~tag:"heap" mc.host size in
    flush_time mc;
    mc.now <- mc.now +. 150.0;
    if old_base <> 0 then begin
      let _, old_size = Memspace.unit_bounds mc.host old_base in
      Memspace.blit ~src:mc.host ~src_addr:old_base ~dst:mc.host
        ~dst_addr:base ~len:(min old_size size);
      with_runtime mc ~default:() (fun rt ->
          Runtime.unregister_heap rt ~base:old_base);
      Memspace.free mc.host old_base
    end;
    register_heap mc ~base ~size;
    Some (VI (Int64.of_int base))
  | "free", [ p ] ->
    let base = Int64.to_int (as_int p) in
    with_runtime mc ~default:() (fun rt -> Runtime.unregister_heap rt ~base);
    Memspace.free mc.host base;
    None
  (* ---- explicit driver API (manual management, Listing 1 style) ----
     Only the explicit strategy has a separate device memory. Elsewhere
     gpu_malloc hands out host storage and the copies are host-side
     blits; under paging the data pays page faults when kernels touch
     it — manual staging buys nothing, which is the point of managed
     memory. *)
  | "gpu_malloc", [ size ] -> (
    let size = Int64.to_int (as_int size) in
    if mc.in_kernel then error "gpu_malloc on the device";
    flush_time mc;
    match mc.strat with
    | Explicit _ ->
      let d, now = Device.mem_alloc mc.dev ~now:mc.now size in
      mc.now <- now;
      Some (VI (Int64.of_int d))
    | Unified | Inspector | Paged _ ->
      Some (VI (Int64.of_int (Memspace.alloc ~tag:"gpu" mc.host size))))
  | "gpu_free", [ p ] ->
    let d = Int64.to_int (as_int p) in
    flush_time mc;
    (match mc.strat with
    | Explicit _ -> mc.now <- Device.mem_free mc.dev ~now:mc.now d
    | Unified | Inspector | Paged _ -> Memspace.free mc.host d);
    None
  | ("gpu_memcpy_h2d" | "gpu_memcpy_d2h"), [ dst; src; len ] ->
    let dst = Int64.to_int (as_int dst)
    and src = Int64.to_int (as_int src)
    and len = Int64.to_int (as_int len) in
    flush_time mc;
    (match mc.strat with
    | Explicit _ ->
      mc.now <-
        (if name = "gpu_memcpy_h2d" then
           Device.memcpy_h_to_d mc.dev ~now:mc.now ~host:mc.host
             ~host_addr:src ~dev_addr:dst ~len
         else
           Device.memcpy_d_to_h mc.dev ~now:mc.now ~host:mc.host
             ~host_addr:dst ~dev_addr:src ~len)
    | Unified | Inspector | Paged _ ->
      touch mc ~addr:src ~len;
      touch mc ~addr:dst ~len;
      Memspace.blit ~src:mc.host ~src_addr:src ~dst:mc.host ~dst_addr:dst ~len);
    None
  | "strlen", [ p ] ->
    let addr = Int64.to_int (as_int p) in
    let s = Memspace.load_string (space mc) addr in
    touch mc ~addr ~len:(String.length s + 1);
    (* charge proportional work *)
    for _ = 1 to String.length s do tick mc done;
    Some (VI (Int64.of_int (String.length s)))
  | "print_i64", [ v ] ->
    Buffer.add_string mc.out (Int64.to_string (as_int v));
    Buffer.add_char mc.out '\n';
    None
  | "print_f64", [ v ] ->
    Buffer.add_string mc.out (Printf.sprintf "%.6g" (as_float v));
    Buffer.add_char mc.out '\n';
    None
  | "prints", [ p ] ->
    let addr = Int64.to_int (as_int p) in
    let s = Memspace.load_string (space mc) addr in
    touch mc ~addr ~len:(String.length s + 1);
    Buffer.add_string mc.out s;
    Buffer.add_char mc.out '\n';
    None
  | "pow", [ a; b ] -> Some (VF (Float.pow (as_float a) (as_float b)))
  | _ when math1 name <> None -> (
    match argv with
    | [ a ] -> Some (VF ((Option.get (math1 name)) (as_float a)))
    | _ -> error "%s expects one argument" name)
  (* ---- the CGCM run-time library ---- *)
  | _ when Ir.Intrinsic.is_cgcm name -> dispatch_cgcm mc name argv
  | _ -> (
    match Hashtbl.find_opt mc.funcs name with
    | Some f ->
      if f.Ir.fkind = Ir.Kernel then error "direct call to kernel %s" name;
      call_func mc f (Array.of_list argv)
    | None -> error "call to unknown function '%s'" name)

and dispatch_cgcm mc name argv : rtval option =
  match (mc.strat, argv) with
  (* The oracle strategies treat the run-time as an identity — used to
     differentially test that the compiler transformations preserve
     semantics. The inspector-executor baseline runs unmanaged modules,
     but treats stray cgcm calls the same way. *)
  | (Unified | Inspector), [ p ]
    when name = Ir.Intrinsic.map || name = Ir.Intrinsic.map_array ->
    Some p
  | (Unified | Inspector), _ -> None
  (* The device strategies: explicit runs the CGCM run-time (copies,
     refcounts, epochs); under paging the hardware manages communication,
     so map is the identity and the rest does nothing. The same compiled
     module runs under both and the A/B isolates the management cost. *)
  | (Explicit _ | Paged _), [ p ] -> (
    let ptr () = Int64.to_int (as_int p) in
    let mapped f =
      let p = ptr () in
      Some (VI (Int64.of_int (with_runtime mc ~default:p (fun rt -> f rt p))))
    in
    let call f =
      let p = ptr () in
      with_runtime mc ~default:() (fun rt -> f rt p);
      None
    in
    match name with
    | "cgcm.map" -> mapped Runtime.map
    | "cgcm.map_array" -> mapped Runtime.map_array
    | "cgcm.unmap" -> call Runtime.unmap
    | "cgcm.release" -> call Runtime.release
    | "cgcm.unmap_array" -> call Runtime.unmap_array
    | "cgcm.release_array" -> call Runtime.release_array
    | _ -> error "unknown cgcm intrinsic '%s'" name)
  | (Explicit _ | Paged _), _ -> error "unknown cgcm intrinsic '%s'" name

and exec_launch mc ~kernel ~trip ~args =
  let f =
    match Hashtbl.find_opt mc.funcs kernel with
    | Some f when f.Ir.fkind = Ir.Kernel -> f
    | _ -> error "launch of unknown kernel %s" kernel
  in
  if trip > 0 then begin
    flush_time mc;
    (match mc.strat with
    | Explicit rt -> Runtime.bump_epoch rt
    | Unified | Inspector | Paged _ -> ());
    (match mc.san with
    | Some s ->
      let rw =
        match Hashtbl.find_opt mc.rw_cache kernel with
        | Some rw -> rw
        | None ->
          let rw = Modref.kernel_rw f in
          Hashtbl.replace mc.rw_cache kernel rw;
          rw
      in
      Sanitizer.on_launch s ~kernel ~reads:rw.Modref.reads
        ~writes:rw.Modref.writes ~unknown:rw.Modref.rw_unknown
    | None -> ());
    let saved_in_kernel = mc.in_kernel in
    let insts_before = mc.kernel_insts in
    let tracking =
      match mc.strat with
      | Inspector ->
        let tbl = Hashtbl.create 16 in
        mc.track_units <- Some tbl;
        Memspace.pool_flush mc.host;
        mc.track_threshold <- mc.host.Memspace.next;
        Some tbl
      | Unified | Explicit _ | Paged _ -> None
    in
    mc.in_kernel <- true;
    (* Resolve the kernel body once, not once per thread. *)
    let invoke =
      match mc.engine with
      | Tree_walk -> fun args -> ignore (exec_func mc f args)
      | Closures | Parallel ->
        let cf = decode mc f in
        fun args -> ignore (exec_compiled mc cf args)
    in
    (* The Parallel engine shards a launch across the domain pool when
       the launch is worth it (trip over the cost-model threshold), the
       kernel is statically shardable, and every global it can touch is
       already device-resident (so shard-side resolution is pure). A
       launch that fails any test takes the sequential path — which is
       why jobs = 1 is exactly the closure engine. *)
    let par =
      mc.engine = Parallel && mc.jobs > 1
      && (match mc.strat with Explicit _ -> true | _ -> false)
      && (not saved_in_kernel)
      && Option.is_none mc.shard_log
      && trip >= mc.cost.Cost_model.par_min_trip
      &&
      match par_kernel_info mc f with
      | None -> false
      | Some gs -> List.for_all (Hashtbl.mem mc.dev.Device.globals) gs
    in
    (try
       if par then exec_launch_parallel mc f ~trip ~args
       else
         for tid = 0 to trip - 1 do
           invoke (Array.of_list (VI (Int64.of_int tid) :: args))
         done
     with e ->
       mc.in_kernel <- saved_in_kernel;
       mc.track_units <- None;
       raise e);
    mc.in_kernel <- saved_in_kernel;
    mc.track_units <- None;
    let insts = mc.kernel_insts - insts_before in
    (* Graceful degradation: if the driver refuses the launch, the kernel
       body (already executed functionally against device memory — the
       data outcome is identical) is re-attributed to the CPU timeline as
       synchronous CPU work: the instructions move from the kernel to the
       CPU account, the clock advances at CPU speed, and the device
       timeline, launch stats and trace stay untouched. *)
    let launch () =
      match Device.launch mc.dev ~now:mc.now ~name:kernel ~insts ~trip with
      | now -> mc.now <- now
      | exception Errors.Device_error (Errors.Launch_failed _) ->
        Runtime.note_cpu_fallback mc.rt;
        mc.kernel_insts <- mc.kernel_insts - insts;
        mc.cpu_insts <- mc.cpu_insts + insts;
        let start = mc.now in
        mc.now <-
          mc.now +. (float_of_int insts *. mc.cost.Cost_model.cpu_cycle);
        Trace.record mc.dev.Device.trace Trace.Kernel ~start ~finish:mc.now
          ~label:(kernel ^ "+cpu-fallback") ~bytes:0
    in
    match mc.strat with
    | Explicit _ -> launch ()
    | Paged pg ->
      launch ();
      (* the kernel's demand faults extend the device's busy window once
         the driver work is accounted — even on CPU fallback the pages
         migrated and the cost was paid *)
      Paged.flush_launch pg
    | Unified -> ()
    | Inspector ->
      (* 1. sequential inspection on the CPU: replay the loop's address
            slice (a fraction of the kernel's dynamic instructions) *)
      let inspect =
        float_of_int insts *. mc.inspector_fraction
        *. mc.cost.Cost_model.cpu_cycle
      in
      mc.now <- mc.now +. inspect;
      mc.cpu_insts <-
        mc.cpu_insts + int_of_float (float_of_int insts *. mc.inspector_fraction);
      (* 2. oracle transfers: one byte per accessed allocation unit,
            batched into a single DMA each way (the scheduler is an
            oracle, so it gathers perfectly) *)
      let st = Device.stats mc.dev in
      let tbl = Option.get tracking in
      let read_units = Hashtbl.length tbl in
      let written_units =
        Hashtbl.fold (fun _ w n -> if w then n + 1 else n) tbl 0
      in
      if read_units > 0 then begin
        let dur = Cost_model.transfer_cycles mc.cost read_units in
        Trace.record mc.dev.Device.trace Trace.Htod ~start:mc.now
          ~finish:(mc.now +. dur) ~label:"ie-in" ~bytes:read_units;
        mc.now <- mc.now +. dur;
        st.Device.comm_cycles <- st.Device.comm_cycles +. dur;
        st.Device.htod_bytes <- st.Device.htod_bytes + read_units;
        st.Device.htod_count <- st.Device.htod_count + 1
      end;
      if written_units > 0 then begin
        let dur = Cost_model.transfer_cycles mc.cost written_units in
        Trace.record mc.dev.Device.trace Trace.Dtoh ~start:mc.now
          ~finish:(mc.now +. dur) ~label:"ie-out" ~bytes:written_units;
        mc.now <- mc.now +. dur;
        st.Device.comm_cycles <- st.Device.comm_cycles +. dur;
        st.Device.dtoh_bytes <- st.Device.dtoh_bytes + written_units;
        st.Device.dtoh_count <- st.Device.dtoh_count + 1
      end;
      (* 3. the kernel itself, fully synchronous (cyclic schedule) *)
      launch ();
      mc.now <- Device.sync mc.dev ~now:mc.now
  end

(* Engine dispatch for an internal (non-kernel) function call. The
   Parallel engine is the closure engine everywhere except inside
   exec_launch. *)
and call_func mc (f : Ir.func) (args : rtval array) : rtval option =
  match mc.engine with
  | Tree_walk -> exec_func mc f args
  | Closures | Parallel -> exec_compiled mc (decode mc f) args

(* ------------------------------------------------------------------ *)
(* The parallel engine: shard a DOALL launch across the domain pool     *)

(* Grow the persistent shard-machine array to [n]. A shard machine
   shares the module, memory spaces, device, cost model and sanitizer
   with the main machine, but owns its decoded-closure tables (per-site
   handle and global-address caches must not be shared across domains),
   its output buffer, its profile counts and its dirty log. Its mutable
   counters are reset at every launch. *)
and ensure_shards mc n =
  let cur = Array.length mc.shards in
  if cur < n then
    mc.shards <-
      Array.init n (fun i ->
          if i < cur then mc.shards.(i)
          else
            {
              mc with
              decoded = Hashtbl.create 32;
              out = Buffer.create 256;
              profile_counts = Hashtbl.create 16;
              shard_log = Some (Memspace.log_create ());
              shards = [||];
            })

and merge_profile mc smc =
  Hashtbl.iter
    (fun k r ->
      match Hashtbl.find_opt mc.profile_counts k with
      | Some r0 -> r0 := !r0 + !r
      | None -> Hashtbl.replace mc.profile_counts k (ref !r))
    smc.profile_counts;
  Hashtbl.reset smc.profile_counts

(* Execute one launch across min(jobs, trip) domains. Called from
   exec_launch with in_kernel already set and the epoch bumped; device-
   timeline accounting (Device.launch) stays in exec_launch, driven by
   the merged instruction count, so gpusim sees exactly the sequential
   schedule.

   Determinism argument: iterations are DOALL (disjoint allocation-unit
   bytes), chunks are contiguous and assigned in increasing shard order,
   and each shard's work is a pure function of its chunk plus pre-launch
   state. The join then merges all order-sensitive state in shard order:
   output buffers concatenate to the sequential print order, dirty logs
   replay through the span accumulator in iteration order, and
   instruction counts sum associatively. Shared hot-path state is either
   atomic (the sanitizer's check counter), byte-disjoint by the DOALL
   guarantee (Bytes writes, sanitizer version maps), or validated-
   before-use caches whose races are benign (memspace last-block,
   sanitizer claim memos). Everything else the shards touch is
   shard-private, so the result is bit-identical to the sequential
   engine. *)
and exec_launch_parallel mc (f : Ir.func) ~trip ~args =
  let nshards = min mc.jobs trip in
  ensure_shards mc nshards;
  let args = Array.of_list args in
  let nargs = Array.length args in
  (* contiguous balanced chunks: shard s owns [lo s, lo (s+1)) *)
  let q = trip / nshards and r = trip mod nshards in
  let chunk_lo s = (s * q) + min s r in
  let failures = Array.make nshards None in
  Pool.run ~jobs:nshards nshards (fun s ->
      let smc = mc.shards.(s) in
      smc.in_kernel <- true;
      smc.fuel <- mc.fuel;
      smc.kernel_insts <- 0;
      smc.cur_fn <- mc.cur_fn;
      Buffer.clear smc.out;
      (match smc.shard_log with Some l -> Memspace.log_clear l | None -> ());
      try
        let cf = decode smc f in
        let hi = chunk_lo (s + 1) in
        for tid = chunk_lo s to hi - 1 do
          let argv = Array.make (nargs + 1) (VI (Int64.of_int tid)) in
          Array.blit args 0 argv 1 nargs;
          ignore (exec_compiled smc cf argv)
        done
      with e -> failures.(s) <- Some e);
  (* Join barrier: merge shard state in shard (= iteration) order. On a
     shard failure, merge up to and including the failing shard — the
     sequential engine would have applied everything before the faulting
     iteration — and re-raise its exception; later chunks' memory writes
     have already happened, but state past a fault is unspecified (as on
     a real GPU). *)
  let total = ref 0 in
  let failure = ref None in
  let s = ref 0 in
  while !failure = None && !s < nshards do
    let smc = mc.shards.(!s) in
    (match smc.shard_log with Some l -> Memspace.log_replay l | None -> ());
    Buffer.add_buffer mc.out smc.out;
    Buffer.clear smc.out;
    total := !total + smc.kernel_insts;
    if mc.profile_on then merge_profile mc smc;
    failure := failures.(!s);
    incr s
  done;
  mc.kernel_insts <- mc.kernel_insts + !total;
  mc.fuel <- mc.fuel - !total;
  (match !failure with Some e -> raise e | None -> ());
  if mc.fuel <= 0 then error "instruction budget exhausted (infinite loop?)"

(* ------------------------------------------------------------------ *)
(* The closure engine: decode once, dispatch via closure call           *)

and decode mc (f : Ir.func) : cfunc =
  match Hashtbl.find_opt mc.decoded f.Ir.fname with
  | Some cf -> cf
  | None ->
    (* The use-count / folding / alloca-promotion analysis is shared with
       the parallel engine's shardability check (analyze_func above). *)
    let a = analyze_func f in
    let uses = a.fa_uses and fold_ok = a.fa_fold_ok and promo = a.fa_promo in
    let cf =
      {
        cfn = f;
        cblocks = Array.map (decode_block mc ~uses ~fold_ok ~promo) f.Ir.blocks;
        nlocals = a.fa_nlocals;
      }
    in
    Hashtbl.replace mc.decoded f.Ir.fname cf;
    cf

and decode_block mc ~uses ~fold_ok ~promo (b : Ir.block) : cblock =
  (* Call-like instructions bound a tick run: they can flush the clock,
     print, or recurse, so counters must be exact when they execute.
     Everything else is invisible to the counters. *)
  let call_like = function
    | Ir.Call _ | Ir.Launch _ -> true
    | Ir.Alloca (_, _, info) -> info.Ir.aregistered
    | _ -> false
  in
  let instrs = Array.of_list b.Ir.instrs in
  let n = Array.length instrs in
  (* The folder: a Binop/Unop whose single use sits later in the same
     run (no call-like instruction strictly between def and use; the
     block terminator belongs to the trailing run) is not emitted — its
     consumer rebuilds the expression inline. Folded expressions read
     only registers (single-assignment, so stable) and global addresses
     (fixed after first resolution), so evaluating them at the use site
     is observationally identical on non-faulting programs; staying
     inside one run keeps prints and clock flushes out of the def-to-use
     window. Ticks count source instructions, folded or not. *)
  let folded = Array.make n false in
  if fold_ok then begin
    let uses_reg r vs =
      List.exists (function Ir.Reg x -> x = r | _ -> false) vs
    in
    for idx = 0 to n - 1 do
      match instrs.(idx) with
      | (Ir.Binop (d, _, _, _) | Ir.Unop (d, _, _))
        when d < Array.length uses && uses.(d) = 1 ->
        let rec scan j =
          if j >= n then uses_reg d (Ir.uses_of_term b.Ir.term)
          else if uses_reg d (Ir.uses_of_instr instrs.(j)) then true
          else if call_like instrs.(j) then false
          else scan (j + 1)
        in
        folded.(idx) <- scan (idx + 1)
      | _ -> ()
    done
  end;
  let avail : (int, Ir.instr) Hashtbl.t = Hashtbl.create 8 in
  let runs = ref [] and cur = ref [] and nticks = ref 0 in
  let close extra =
    runs :=
      { ticks = !nticks + extra; ops = Array.of_list (List.rev !cur) } :: !runs;
    cur := [];
    nticks := 0
  in
  Array.iteri
    (fun idx i ->
      incr nticks;
      if folded.(idx) then (
        match Ir.def_of_instr i with
        | Some d -> Hashtbl.replace avail d i
        | None -> ())
      else cur := decode_instr mc avail promo i :: !cur;
      if call_like i then close 0)
    instrs;
  (* the trailing run also accounts the terminator's tick *)
  close 1;
  { runs = Array.of_list (List.rev !runs); ct = decode_term mc avail b.Ir.term }

(* Cached global-address resolution. Host addresses are fixed after
   load_globals. Device addresses are allocated by the driver on first
   touch (which charges alloc_overhead, exactly once — the first call
   here is the first touch, as in the tree engine) and stay put while no
   global is evicted, so the device side caches the address together
   with the globals generation it was resolved under: an eviction bumps
   [Device.globals_gen] and invalidates every cached address at the cost
   of one integer compare per access. *)
and gaddr mc g : ctx -> int =
  let haddr = ref (-1) and daddr = ref (-1) and dgen = ref (-1) in
  let explicit = match mc.strat with Explicit _ -> true | _ -> false in
  fun _ ->
    if mc.in_kernel && explicit then begin
      let a = !daddr in
      if a >= 0 && !dgen = mc.dev.Device.globals_gen then a
      else begin
        let a = global_addr mc g in
        daddr := a;
        dgen := mc.dev.Device.globals_gen;
        a
      end
    end
    else begin
      let a = !haddr in
      if a >= 0 then a
      else begin
        let a = global_addr mc g in
        haddr := a;
        a
      end
    end

(* ---- Typed operand folding --------------------------------------- *)
(* fold_* resolve an operand in the representation its consumer wants,
   looking through the avail table to inline folded single-use defs.
   expr_* rebuild a folded defining instruction as a typed expression.
   A type mismatch (e.g. a float expression consumed as an integer)
   evaluates the expression and then faults with the same message the
   tree engine's as_int/as_float would produce. *)

and fold_i mc avail (v : Ir.value) : ctx -> int64 =
  match v with
  | Ir.Reg r -> (
    match Hashtbl.find_opt avail r with
    | Some i -> expr_i mc avail i
    | None -> fun c -> as_int (Array.unsafe_get c.fr r))
  | Ir.Imm_int i -> fun _ -> i
  | Ir.Imm_float _ ->
    fun _ -> error "type confusion: float used as integer/pointer"
  | Ir.Global g ->
    let ga = gaddr mc g in
    fun c -> Int64.of_int (ga c)

and fold_f mc avail (v : Ir.value) : ctx -> float =
  match v with
  | Ir.Reg r -> (
    match Hashtbl.find_opt avail r with
    | Some i -> expr_f mc avail i
    | None -> fun c -> as_float (Array.unsafe_get c.fr r))
  | Ir.Imm_float x -> fun _ -> x
  | Ir.Imm_int _ | Ir.Global _ ->
    fun _ -> error "type confusion: integer used as float"

(* Native-int variant for address arithmetic. Add/Sub/Mul chains compute
   in native ints: truncation to 63 bits commutes with +,-,* (modular
   arithmetic), and the tree engine truncates the final int64 with
   Int64.to_int anyway, so the resulting address is bit-identical. *)
and fold_addr mc avail (v : Ir.value) : ctx -> int =
  match v with
  | Ir.Reg r -> (
    match Hashtbl.find_opt avail r with
    | Some i -> expr_addr mc avail i
    | None -> fun c -> Int64.to_int (as_int (Array.unsafe_get c.fr r)))
  | Ir.Imm_int i ->
    let a = Int64.to_int i in
    fun _ -> a
  | Ir.Imm_float _ ->
    fun _ -> error "type confusion: float used as integer/pointer"
  | Ir.Global g -> gaddr mc g

(* Boxed variant, for call/launch arguments and returns. *)
and fold_rt mc avail (v : Ir.value) : ctx -> rtval =
  match v with
  | Ir.Reg r -> (
    match Hashtbl.find_opt avail r with
    | Some i -> expr_rt mc avail i
    | None -> fun c -> Array.unsafe_get c.fr r)
  | _ -> cval mc v

and expr_i mc avail (i : Ir.instr) : ctx -> int64 =
  match i with
  | Ir.Binop (_, op, a, b) -> (
    match bin_kind op with
    | KI f ->
      let fb = fold_i mc avail b in
      let fa = fold_i mc avail a in
      fun c ->
        let y = fb c in
        let x = fa c in
        f x y
    | KDiv ->
      let fb = fold_i mc avail b in
      let fa = fold_i mc avail a in
      fun c ->
        let y = fb c in
        if y = 0L then error "integer division by zero";
        let x = fa c in
        Int64.div x y
    | KRem ->
      let fb = fold_i mc avail b in
      let fa = fold_i mc avail a in
      fun c ->
        let y = fb c in
        if y = 0L then error "integer remainder by zero";
        let x = fa c in
        Int64.rem x y
    | KIC f ->
      let fb = fold_i mc avail b in
      let fa = fold_i mc avail a in
      fun c ->
        let y = fb c in
        let x = fa c in
        if f x y then 1L else 0L
    | KFC f ->
      let fb = fold_f mc avail b in
      let fa = fold_f mc avail a in
      fun c ->
        let y = fb c in
        let x = fa c in
        if f x y then 1L else 0L
    | KF _ ->
      let ff = expr_f mc avail i in
      fun c -> as_int (VF (ff c)))
  | Ir.Unop (_, op, a) -> (
    match op with
    | Ir.Neg ->
      let fa = fold_i mc avail a in
      fun c -> Int64.neg (fa c)
    | Ir.Not ->
      let fa = fold_i mc avail a in
      fun c -> Int64.lognot (fa c)
    | Ir.Float_to_int ->
      let fa = fold_f mc avail a in
      fun c -> Int64.of_float (fa c)
    | Ir.Fneg | Ir.Int_to_float ->
      let ff = expr_f mc avail i in
      fun c -> as_int (VF (ff c)))
  | _ -> assert false (* only pure Binop/Unop defs are folded *)

and expr_f mc avail (i : Ir.instr) : ctx -> float =
  match i with
  | Ir.Binop (_, op, a, b) -> (
    match bin_kind op with
    | KF f ->
      let fb = fold_f mc avail b in
      let fa = fold_f mc avail a in
      fun c ->
        let y = fb c in
        let x = fa c in
        f x y
    | _ ->
      let fi = expr_i mc avail i in
      fun c -> as_float (VI (fi c)))
  | Ir.Unop (_, op, a) -> (
    match op with
    | Ir.Fneg ->
      let fa = fold_f mc avail a in
      fun c -> -.fa c
    | Ir.Int_to_float ->
      let fa = fold_i mc avail a in
      fun c -> Int64.to_float (fa c)
    | Ir.Neg | Ir.Not | Ir.Float_to_int ->
      let fi = expr_i mc avail i in
      fun c -> as_float (VI (fi c)))
  | _ -> assert false

and expr_addr mc avail (i : Ir.instr) : ctx -> int =
  match i with
  | Ir.Binop (_, Ir.Add, a, b) ->
    let fb = fold_addr mc avail b in
    let fa = fold_addr mc avail a in
    fun c ->
      let y = fb c in
      let x = fa c in
      x + y
  | Ir.Binop (_, Ir.Sub, a, b) ->
    let fb = fold_addr mc avail b in
    let fa = fold_addr mc avail a in
    fun c ->
      let y = fb c in
      let x = fa c in
      x - y
  | Ir.Binop (_, Ir.Mul, a, b) ->
    let fb = fold_addr mc avail b in
    let fa = fold_addr mc avail a in
    fun c ->
      let y = fb c in
      let x = fa c in
      x * y
  | _ ->
    let fi = expr_i mc avail i in
    fun c -> Int64.to_int (fi c)

and expr_rt mc avail (i : Ir.instr) : ctx -> rtval =
  match i with
  | Ir.Binop (_, op, _, _) -> (
    match bin_kind op with
    | KF _ ->
      let ff = expr_f mc avail i in
      fun c -> VF (ff c)
    | KIC _ | KFC _ ->
      let fi = expr_i mc avail i in
      fun c -> if fi c <> 0L then vtrue else vfalse
    | KI _ | KDiv | KRem ->
      let fi = expr_i mc avail i in
      fun c -> VI (fi c))
  | Ir.Unop (_, (Ir.Fneg | Ir.Int_to_float), _) ->
    let ff = expr_f mc avail i in
    fun c -> VF (ff c)
  | Ir.Unop _ ->
    let fi = expr_i mc avail i in
    fun c -> VI (fi c)
  | _ -> assert false

(* Compiled operand: resolved to a closure over the frame. *)
and cval mc (v : Ir.value) : ctx -> rtval =
  match v with
  | Ir.Reg r -> fun c -> Array.unsafe_get c.fr r
  | Ir.Imm_int i ->
    let v = VI i in
    fun _ -> v
  | Ir.Imm_float x ->
    let v = VF x in
    fun _ -> v
  | Ir.Global g ->
    let ga = gaddr mc g in
    fun c -> VI (Int64.of_int (ga c))

(* Instruction decode. Ticks are accounted by the enclosing run
   (decode_block), not by the closures. Operand shapes are resolved here:
   the register/register and register/immediate forms of the hot
   operators compile to closures with no inner indirect calls. Reordering
   a Reg/Imm operand fetch is safe (they are pure); only Global operands
   can have effects, and those take the generic right-to-left path. *)
and decode_instr mc avail promo (i : Ir.instr) : cinstr =
  match i with
  | Ir.Binop (d, op, a, b) -> decode_binop mc avail d op a b
  | Ir.Unop (d, op, a) -> (
    let f = un_fn op in
    match a with
    | Ir.Reg r when not (Hashtbl.mem avail r) ->
      fun c -> c.fr.(d) <- f (Array.unsafe_get c.fr r)
    | _ ->
      let fa = fold_rt mc avail a in
      fun c -> c.fr.(d) <- f (fa c))
  (* Promoted alloca slots: the access is a frame-array move. I64
     accesses reinterpret the slot's IEEE bits, exactly as the byte store
     in the memory space would. *)
  | Ir.Load (d, Ir.F64, Ir.Reg r) when Hashtbl.mem promo r ->
    let ix = Hashtbl.find promo r in
    fun c -> Array.unsafe_set c.fr d (VF (Array.unsafe_get c.lv ix))
  | Ir.Load (d, Ir.I64, Ir.Reg r) when Hashtbl.mem promo r ->
    let ix = Hashtbl.find promo r in
    fun c ->
      Array.unsafe_set c.fr d
        (VI (Int64.bits_of_float (Array.unsafe_get c.lv ix)))
  | Ir.Store (Ir.F64, Ir.Reg r, v) when Hashtbl.mem promo r ->
    let ix = Hashtbl.find promo r in
    let fv = fold_f mc avail v in
    fun c -> Array.unsafe_set c.lv ix (fv c)
  | Ir.Store (Ir.I64, Ir.Reg r, v) when Hashtbl.mem promo r ->
    let ix = Hashtbl.find promo r in
    let fv = fold_i mc avail v in
    fun c -> Array.unsafe_set c.lv ix (Int64.float_of_bits (fv c))
  | Ir.Alloca (d, _, _) when Hashtbl.mem promo d ->
    let ix = Hashtbl.find promo d in
    fun c -> Array.unsafe_set c.lv ix 0.0
  | Ir.Load (d, ty, a) -> decode_load mc avail d ty a
  | Ir.Store (ty, a, v) -> decode_store mc avail ty a v
  | Ir.Alloca (d, size, info) ->
    let fs = fold_rt mc avail size in
    fun c ->
      let size = Int64.to_int (as_int (fs c)) in
      let base = Memspace.alloc ~tag:info.Ir.aname c.sp size in
      c.allocas <- base :: c.allocas;
      c.fr.(d) <- VI (Int64.of_int base);
      if info.Ir.aregistered && not mc.in_kernel then begin
        with_runtime mc ~default:() (fun rt ->
            Runtime.declare_alloca rt ~base ~size);
        c.registered <- base :: c.registered
      end
  | Ir.Call (d, name, args) ->
    let fargs = List.map (fold_rt mc avail) args in
    let set_res =
      match d with
      | Some d ->
        fun c res ->
          c.fr.(d) <- (match res with Some v -> v | None -> VI 0L)
      | None -> fun _ _ -> ()
    in
    let generic () =
      fun c ->
        let argv = List.map (fun g -> g c) fargs in
        set_res c (dispatch_call mc name argv)
    in
    if is_builtin name then begin
      (* Pure math calls are the only builtins hot enough to specialise;
         everything else keeps the tree engine's dispatch (which the
         closure still reaches without re-matching the instruction). *)
      match (math1 name, fargs) with
      | Some g, [ fa ] -> fun c -> set_res c (Some (VF (g (as_float (fa c)))))
      | _ -> (
        match (name, fargs) with
        | "pow", [ fa; fb ] ->
          fun c ->
            let va = fa c in
            let vb = fb c in
            set_res c (Some (VF (Float.pow (as_float va) (as_float vb))))
        | _ -> generic ())
    end
    else begin
      match Hashtbl.find_opt mc.funcs name with
      | Some f when f.Ir.fkind = Ir.Cpu ->
        (* Direct call to a user function: callee resolved at decode, its
           body decoded lazily on first execution (handles recursion). *)
        let fargs = Array.of_list fargs in
        let n = Array.length fargs in
        let resolved = ref None in
        fun c ->
          let argv = if n = 0 then [||] else Array.make n (VI 0L) in
          for i = 0 to n - 1 do
            argv.(i) <- (Array.unsafe_get fargs i) c
          done;
          let cf =
            match !resolved with
            | Some cf -> cf
            | None ->
              let cf = decode mc f in
              resolved := Some cf;
              cf
          in
          set_res c (exec_compiled mc cf argv)
      | _ ->
        (* kernels called directly, or unknown names: fault at execution
           time with the tree engine's message *)
        generic ()
    end
  | Ir.Launch { kernel; trip; args } ->
    let ft = fold_rt mc avail trip in
    let fargs = List.map (fold_rt mc avail) args in
    fun c ->
      let args = List.map (fun g -> g c) fargs in
      let trip = Int64.to_int (as_int (ft c)) in
      exec_launch mc ~kernel ~trip ~args

and decode_binop mc avail d op a b : cinstr =
  let is_folded = function Ir.Reg r -> Hashtbl.mem avail r | _ -> false in
  if is_folded a || is_folded b then begin
    (* An operand is a folded def: rebuild the whole expression inline
       and write the (multi-use) result to the frame. *)
    let g = expr_rt mc avail (Ir.Binop (d, op, a, b)) in
    fun c -> c.fr.(d) <- g c
  end
  else begin
  let open Ir in
  match (op, a, b) with
  (* fully inlined forms of the operators that dominate executed code:
     address arithmetic, float kernels, loop conditions *)
  | Add, Reg ra, Reg rb ->
    fun c ->
      c.fr.(d) <-
        VI (Int64.add (as_int (Array.unsafe_get c.fr ra))
              (as_int (Array.unsafe_get c.fr rb)))
  | Add, Reg ra, Imm_int ib ->
    fun c -> c.fr.(d) <- VI (Int64.add (as_int (Array.unsafe_get c.fr ra)) ib)
  | Sub, Reg ra, Reg rb ->
    fun c ->
      c.fr.(d) <-
        VI (Int64.sub (as_int (Array.unsafe_get c.fr ra))
              (as_int (Array.unsafe_get c.fr rb)))
  | Sub, Reg ra, Imm_int ib ->
    fun c -> c.fr.(d) <- VI (Int64.sub (as_int (Array.unsafe_get c.fr ra)) ib)
  | Mul, Reg ra, Reg rb ->
    fun c ->
      c.fr.(d) <-
        VI (Int64.mul (as_int (Array.unsafe_get c.fr ra))
              (as_int (Array.unsafe_get c.fr rb)))
  | Mul, Reg ra, Imm_int ib ->
    fun c -> c.fr.(d) <- VI (Int64.mul (as_int (Array.unsafe_get c.fr ra)) ib)
  | Fadd, Reg ra, Reg rb ->
    fun c ->
      c.fr.(d) <-
        VF (as_float (Array.unsafe_get c.fr ra)
            +. as_float (Array.unsafe_get c.fr rb))
  | Fsub, Reg ra, Reg rb ->
    fun c ->
      c.fr.(d) <-
        VF (as_float (Array.unsafe_get c.fr ra)
            -. as_float (Array.unsafe_get c.fr rb))
  | Fmul, Reg ra, Reg rb ->
    fun c ->
      c.fr.(d) <-
        VF (as_float (Array.unsafe_get c.fr ra)
            *. as_float (Array.unsafe_get c.fr rb))
  | Fdiv, Reg ra, Reg rb ->
    fun c ->
      c.fr.(d) <-
        VF (as_float (Array.unsafe_get c.fr ra)
            /. as_float (Array.unsafe_get c.fr rb))
  | Lt, Reg ra, Reg rb ->
    fun c ->
      c.fr.(d) <-
        (if Int64.compare (as_int (Array.unsafe_get c.fr ra))
              (as_int (Array.unsafe_get c.fr rb)) < 0
         then vtrue else vfalse)
  | Lt, Reg ra, Imm_int ib ->
    fun c ->
      c.fr.(d) <-
        (if Int64.compare (as_int (Array.unsafe_get c.fr ra)) ib < 0 then vtrue
         else vfalse)
  | Le, Reg ra, Reg rb ->
    fun c ->
      c.fr.(d) <-
        (if Int64.compare (as_int (Array.unsafe_get c.fr ra))
              (as_int (Array.unsafe_get c.fr rb)) <= 0
         then vtrue else vfalse)
  | Le, Reg ra, Imm_int ib ->
    fun c ->
      c.fr.(d) <-
        (if Int64.compare (as_int (Array.unsafe_get c.fr ra)) ib <= 0 then vtrue
         else vfalse)
  | Gt, Reg ra, Reg rb ->
    fun c ->
      c.fr.(d) <-
        (if Int64.compare (as_int (Array.unsafe_get c.fr ra))
              (as_int (Array.unsafe_get c.fr rb)) > 0
         then vtrue else vfalse)
  | Ge, Reg ra, Reg rb ->
    fun c ->
      c.fr.(d) <-
        (if Int64.compare (as_int (Array.unsafe_get c.fr ra))
              (as_int (Array.unsafe_get c.fr rb)) >= 0
         then vtrue else vfalse)
  | Eq, Reg ra, Reg rb ->
    fun c ->
      c.fr.(d) <-
        (if Int64.equal (as_int (Array.unsafe_get c.fr ra))
              (as_int (Array.unsafe_get c.fr rb))
         then vtrue else vfalse)
  | Ne, Reg ra, Reg rb ->
    fun c ->
      c.fr.(d) <-
        (if Int64.equal (as_int (Array.unsafe_get c.fr ra))
              (as_int (Array.unsafe_get c.fr rb))
         then vfalse else vtrue)
  | Flt, Reg ra, Reg rb ->
    fun c ->
      c.fr.(d) <-
        (if as_float (Array.unsafe_get c.fr ra)
            < as_float (Array.unsafe_get c.fr rb)
         then vtrue else vfalse)
  | Fle, Reg ra, Reg rb ->
    fun c ->
      c.fr.(d) <-
        (if as_float (Array.unsafe_get c.fr ra)
            <= as_float (Array.unsafe_get c.fr rb)
         then vtrue else vfalse)
  (* everything else: shape-specialised operand fetch, operator via the
     decode-time-resolved bin_fn closure *)
  | _, Reg ra, Reg rb ->
    let f = bin_fn op in
    fun c -> c.fr.(d) <- f (Array.unsafe_get c.fr ra) (Array.unsafe_get c.fr rb)
  | _, Reg ra, (Imm_int _ | Imm_float _) ->
    let f = bin_fn op in
    let vb = imm_val b in
    fun c -> c.fr.(d) <- f (Array.unsafe_get c.fr ra) vb
  | _, (Imm_int _ | Imm_float _), Reg rb ->
    let f = bin_fn op in
    let va = imm_val a in
    fun c -> c.fr.(d) <- f va (Array.unsafe_get c.fr rb)
  | _ ->
    let f = bin_fn op in
    let fb = cval mc b in
    let fa = cval mc a in
    fun c ->
      let vb = fb c in
      let va = fa c in
      c.fr.(d) <- f va vb
  end

(* Loads and stores: with no access hook, an unfolded register address
   gets a fast path with no indirect call. Everything else takes one
   generic path per type: address, hook, (store value,) then the access,
   which is the tree engine's fault order. *)
and decode_load mc avail d ty a : cinstr =
  let cache = ref Memspace.null_handle in
  let hook = access_hook mc in
  let fast r =
    (match hook with No_hook -> true | _ -> false) && not (Hashtbl.mem avail r)
  in
  match (ty, a) with
  | Ir.I64, Ir.Reg r when fast r ->
    fun c ->
      let addr = Int64.to_int (as_int (Array.unsafe_get c.fr r)) in
      c.fr.(d) <- VI (Memspace.h_load_i64 (acquire cache c addr 8 "load") addr)
  | Ir.F64, Ir.Reg r when fast r ->
    fun c ->
      let addr = Int64.to_int (as_int (Array.unsafe_get c.fr r)) in
      c.fr.(d) <- VF (Memspace.h_load_f64 (acquire cache c addr 8 "load") addr)
  | Ir.I8, Ir.Reg r when fast r ->
    fun c ->
      let addr = Int64.to_int (as_int (Array.unsafe_get c.fr r)) in
      let h = acquire cache c addr 1 "load" in
      c.fr.(d) <- VI (Int64.of_int (Memspace.h_load_u8 h addr))
  | _ ->
    let fa = fold_addr mc avail a in
    let len = match ty with Ir.I8 -> 1 | _ -> 8 in
    let finish : ctx -> Memspace.handle -> int -> unit =
      match ty with
      | Ir.I8 ->
        fun c h addr -> c.fr.(d) <- VI (Int64.of_int (Memspace.h_load_u8 h addr))
      | Ir.I64 -> fun c h addr -> c.fr.(d) <- VI (Memspace.h_load_i64 h addr)
      | Ir.F64 -> fun c h addr -> c.fr.(d) <- VF (Memspace.h_load_f64 h addr)
    in
    fun c ->
      let addr = fa c in
      run_hook mc hook ~write:false c.sp !cache addr len;
      finish c (acquire cache c addr len "load") addr

(* Shard machines (parallel engine) store through their private dirty
   log: the Bytes write happens immediately, and the order-sensitive
   dirty-span bookkeeping is replayed at the join. *)
and decode_store mc avail ty a v : cinstr =
  let cache = ref Memspace.null_handle in
  let hook = access_hook mc in
  let fast r =
    (match hook with No_hook -> true | _ -> false) && not (Hashtbl.mem avail r)
  in
  match (mc.shard_log, ty, a, v) with
  | None, Ir.F64, Ir.Reg ra, Ir.Reg rv when fast ra && fast rv ->
    fun c ->
      let addr = Int64.to_int (as_int (Array.unsafe_get c.fr ra)) in
      let x = as_float (Array.unsafe_get c.fr rv) in
      Memspace.h_store_f64 (acquire cache c addr 8 "store") addr x
  | None, Ir.I64, Ir.Reg ra, Ir.Reg rv when fast ra && fast rv ->
    fun c ->
      let addr = Int64.to_int (as_int (Array.unsafe_get c.fr ra)) in
      let x = as_int (Array.unsafe_get c.fr rv) in
      Memspace.h_store_i64 (acquire cache c addr 8 "store") addr x
  | None, Ir.I64, Ir.Reg ra, Ir.Imm_int iv when fast ra ->
    fun c ->
      let addr = Int64.to_int (as_int (Array.unsafe_get c.fr ra)) in
      Memspace.h_store_i64 (acquire cache c addr 8 "store") addr iv
  | Some l, Ir.F64, Ir.Reg ra, Ir.Reg rv when fast ra && fast rv ->
    fun c ->
      let addr = Int64.to_int (as_int (Array.unsafe_get c.fr ra)) in
      let x = as_float (Array.unsafe_get c.fr rv) in
      Memspace.h_store_f64_log l (acquire cache c addr 8 "store") addr x
  | Some l, Ir.I64, Ir.Reg ra, Ir.Reg rv when fast ra && fast rv ->
    fun c ->
      let addr = Int64.to_int (as_int (Array.unsafe_get c.fr ra)) in
      let x = as_int (Array.unsafe_get c.fr rv) in
      Memspace.h_store_i64_log l (acquire cache c addr 8 "store") addr x
  | Some l, Ir.I64, Ir.Reg ra, Ir.Imm_int iv when fast ra ->
    fun c ->
      let addr = Int64.to_int (as_int (Array.unsafe_get c.fr ra)) in
      Memspace.h_store_i64_log l (acquire cache c addr 8 "store") addr iv
  | log, _, _, _ -> (
    let fa = fold_addr mc avail a in
    let store (type v) (fv : ctx -> v) (st : Memspace.handle -> int -> v -> unit)
        len : cinstr =
     fun c ->
      let addr = fa c in
      run_hook mc hook ~write:true c.sp !cache addr len;
      let x = fv c in
      st (acquire cache c addr len "store") addr x
    in
    match ty with
    | Ir.I8 ->
      let fv = fold_i mc avail v in
      store
        (fun c -> Int64.to_int (fv c) land 0xff)
        (match log with
        | None -> Memspace.h_store_u8
        | Some l -> Memspace.h_store_u8_log l)
        1
    | Ir.I64 ->
      store (fold_i mc avail v)
        (match log with
        | None -> Memspace.h_store_i64
        | Some l -> Memspace.h_store_i64_log l)
        8
    | Ir.F64 ->
      store (fold_f mc avail v)
        (match log with
        | None -> Memspace.h_store_f64
        | Some l -> Memspace.h_store_f64_log l)
        8)

and decode_term mc avail (t : Ir.terminator) : ctx -> int =
  match t with
  | Ir.Br b -> fun _ -> b
  | Ir.Cbr (Ir.Reg r, b1, b2) when Hashtbl.mem avail r -> (
    (* Fuse a folded comparison straight into the branch: no boolean
       box, no frame traffic. *)
    match Hashtbl.find avail r with
    | Ir.Binop (_, op, a, b) as def -> (
      match bin_kind op with
      | KIC f ->
        let fb = fold_i mc avail b in
        let fa = fold_i mc avail a in
        fun c ->
          let y = fb c in
          let x = fa c in
          if f x y then b1 else b2
      | KFC f ->
        let fb = fold_f mc avail b in
        let fa = fold_f mc avail a in
        fun c ->
          let y = fb c in
          let x = fa c in
          if f x y then b1 else b2
      | _ ->
        let fv = expr_i mc avail def in
        fun c -> if fv c <> 0L then b1 else b2)
    | def ->
      let fv = expr_i mc avail def in
      fun c -> if fv c <> 0L then b1 else b2)
  | Ir.Cbr (Ir.Reg r, b1, b2) ->
    fun c -> if as_int (Array.unsafe_get c.fr r) <> 0L then b1 else b2
  | Ir.Cbr (v, b1, b2) ->
    let fv = cval mc v in
    fun c -> if as_int (fv c) <> 0L then b1 else b2
  | Ir.Ret None ->
    fun c ->
      c.ret <- None;
      -1
  | Ir.Ret (Some (Ir.Reg r)) when Hashtbl.mem avail r ->
    let fv = fold_rt mc avail (Ir.Reg r) in
    fun c ->
      c.ret <- Some (fv c);
      -1
  | Ir.Ret (Some (Ir.Reg r)) ->
    fun c ->
      c.ret <- Some (Array.unsafe_get c.fr r);
      -1
  | Ir.Ret (Some v) ->
    let fv = cval mc v in
    fun c ->
      c.ret <- Some (fv c);
      -1

and exec_compiled mc (cf : cfunc) (args : rtval array) : rtval option =
  let f = cf.cfn in
  if Array.length args <> f.Ir.nargs then
    error "%s called with %d args, expected %d" f.Ir.fname (Array.length args)
      f.Ir.nargs;
  let caller_fn = mc.cur_fn in
  mc.cur_fn <- f.Ir.fname;
  let frame = Array.make (max f.Ir.nregs 1) (VI 0L) in
  Array.blit args 0 frame 0 (Array.length args);
  let c =
    {
      fr = frame;
      lv = (if cf.nlocals = 0 then [||] else Array.make cf.nlocals 0.0);
      sp = space mc;
      ret = None;
      allocas = [];
      registered = [];
    }
  in
  let finish () =
    expire_allocas mc c.registered;
    List.iter (fun base -> Memspace.free_local c.sp base) c.allocas
  in
  let blocks = cf.cblocks in
  let res =
    try
      let rec loop b =
        let blk = Array.unsafe_get blocks b in
        let runs = blk.runs in
        for s = 0 to Array.length runs - 1 do
          let r = Array.unsafe_get runs s in
          seg_tick mc r.ticks;
          let ops = r.ops in
          for i = 0 to Array.length ops - 1 do
            (Array.unsafe_get ops i) c
          done
        done;
        let nxt = blk.ct c in
        if nxt >= 0 then loop nxt else c.ret
      in
      loop 0
    with e ->
      finish ();
      mc.cur_fn <- caller_fn;
      raise e
  in
  finish ();
  mc.cur_fn <- caller_fn;
  res

(* ------------------------------------------------------------------ *)

let run ?(config = default_config) (m : Ir.modul) : result =
  let host =
    Memspace.create ~name:"host" ~range_lo:0x10_0000 ~range_hi:0x4000_0000_00
  in
  let trace = Trace.create ~enabled:config.trace () in
  (* One sanitizer instance shared by the driver, run-time and
     interpreter hooks. Only the explicit strategy has two memories to
     keep coherent; the oracle modes and paging have nothing to check. *)
  let sanitizer =
    match (config.mode, config.backend) with
    | Split, Mem_backend.Explicit when config.sanitize ->
      Some (Sanitizer.create ~dev_lo:0x4000_0000_00 ())
    | _ -> None
  in
  let dev =
    Device.create ~trace
      ?faults:(Option.map Faults.make config.faults)
      ?sanitizer config.cost
  in
  let rt =
    Runtime.create ~dirty_spans:config.dirty_spans ~paranoid:config.paranoid
      ~host ~dev ()
  in
  let strat =
    match (config.mode, config.backend) with
    | Unified, _ -> Unified
    | Inspector_executor, _ -> Inspector
    | Split, Mem_backend.Explicit -> Explicit rt
    | Split, Mem_backend.Paged -> Paged (Paged.create ~dev config.cost)
  in
  let funcs = Hashtbl.create 32 in
  List.iter (fun (f : Ir.func) -> Hashtbl.replace funcs f.Ir.fname f) m.Ir.funcs;
  let mc =
    {
      m;
      host;
      dev;
      rt;
      strat;
      engine = config.engine;
      cost = config.cost;
      funcs;
      decoded = Hashtbl.create 32;
      globals_host = Hashtbl.create 16;
      out = Buffer.create 256;
      now = 0.0;
      pending_insts = 0;
      cpu_insts = 0;
      kernel_insts = 0;
      in_kernel = false;
      fuel = config.fuel;
      inspector_fraction = config.inspector_fraction;
      track_units = None;
      track_threshold = max_int;
      profile_on = config.profile;
      profile_counts = Hashtbl.create 16;
      cur_fn = "<toplevel>";
      san = sanitizer;
      rw_cache = Hashtbl.create 8;
      jobs =
        (match config.engine with
        | Parallel ->
          if config.jobs > 0 then min config.jobs Pool.max_jobs
          else Pool.default_jobs ()
        | Closures | Tree_walk -> 1);
      par_cache = Hashtbl.create 8;
      shards = [||];
      shard_log = None;
    }
  in
  load_globals mc;
  let main =
    match Hashtbl.find_opt funcs "main" with
    | Some f -> f
    | None -> error "module has no main function"
  in
  let res = call_func mc main [||] in
  flush_time mc;
  mc.now <- Device.sync mc.dev ~now:mc.now;
  let st = Device.stats dev in
  {
    exit_code = (match res with Some (VI i) -> i | _ -> 0L);
    output = Buffer.contents mc.out;
    wall = mc.now;
    cpu_compute =
      float_of_int mc.cpu_insts *. config.cost.Cost_model.cpu_cycle;
    gpu = st.Device.kernel_cycles;
    comm = st.Device.comm_cycles;
    sync = st.Device.sync_cycles;
    cpu_insts = mc.cpu_insts;
    kernel_insts = mc.kernel_insts;
    dev_stats = st;
    rt_stats = rt.Runtime.stats;
    leaks = Runtime.leak_report rt;
    dev_peak_bytes = Memspace.peak_bytes dev.Device.mem;
    trace;
    profile =
      Hashtbl.fold (fun k r acc -> (k, !r) :: acc) mc.profile_counts []
      |> List.sort (fun (_, a) (_, b) -> compare b a);
    san_report = Option.map Sanitizer.report sanitizer;
    page_stats =
      (match strat with Paged pg -> Some (Paged.stats pg) | _ -> None);
  }
