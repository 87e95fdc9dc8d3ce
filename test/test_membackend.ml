(* The memory-backend seam: the explicit-copy CGCM run-time vs the
   paged single-address-space backend must be observationally identical
   — same program output, same exit code, clean leak reports — with only
   the cost model differing. Plus qcheck properties of the page-
   migration accounting against a reference model, golden tests for the
   byte-size CLI parser, and the serve daemon's "+paged" mode suffix. *)

module Pipeline = Cgcm_core.Pipeline
module Interp = Cgcm_interp.Interp
module Mem_backend = Cgcm_runtime.Mem_backend
module Paged = Cgcm_runtime.Paged
module Runtime = Cgcm_runtime.Runtime
module Device = Cgcm_gpusim.Device
module Cost_model = Cgcm_gpusim.Cost_model
module Bytesize = Cgcm_support.Bytesize
module Engine = Cgcm_serve.Engine
module Wire = Cgcm_serve.Wire
module E = Cgcm_core.Experiments
module Validate = Cgcm_core.Validate

let check = Alcotest.check

let clean (r : Interp.result) =
  r.Interp.leaks.Runtime.resident_nonglobal = 0
  && r.Interp.leaks.Runtime.leaked_dev_blocks = 0

(* ------------------------------------------------------------------ *)
(* Backend differential: the whole small-size suite, both split-memory
   configurations, must be bit-identical between backends. *)

let backend_differential exec () =
  List.iter
    (fun (name, src) ->
      let run backend = snd (Pipeline.run ~backend exec src) in
      let ex = run Mem_backend.Explicit and pg = run Mem_backend.Paged in
      check Alcotest.string
        (name ^ ": output identical across backends")
        ex.Interp.output pg.Interp.output;
      check Alcotest.int64
        (name ^ ": exit code identical across backends")
        ex.Interp.exit_code pg.Interp.exit_code;
      check Alcotest.bool (name ^ ": explicit leak report clean") true
        (clean ex);
      check Alcotest.bool (name ^ ": paged leak report clean") true (clean pg);
      check Alcotest.bool (name ^ ": explicit run has no page stats") true
        (ex.Interp.page_stats = None);
      check Alcotest.bool (name ^ ": paged run reports page stats") true
        (pg.Interp.page_stats <> None))
    Test_fastpath.small_programs

(* The closure engine and the tree walker must agree on everything but
   the last few cycles of the host clock: output, exit code, instruction
   counts, page statistics, and the device's transfer accounting (page
   migrations under paging, oracle transfers under the inspector).
   Both engines treat promoted alloca slots as registers that no hook
   sees, and only the closure engine memoizes hook results per site, so
   a stale memo shows up here as a count that differs. *)
let engines_agree name (c : Interp.result) (t : Interp.result) =
  check Alcotest.string (name ^ ": engines agree on output") c.Interp.output
    t.Interp.output;
  check Alcotest.int64 (name ^ ": engines agree on exit code")
    c.Interp.exit_code t.Interp.exit_code;
  check Alcotest.int (name ^ ": cpu instructions") c.Interp.cpu_insts
    t.Interp.cpu_insts;
  check Alcotest.int (name ^ ": kernel instructions") c.Interp.kernel_insts
    t.Interp.kernel_insts;
  let pages (r : Interp.result) =
    Option.map
      (fun g ->
        [ g.Paged.touches; g.Paged.touched_pages; g.Paged.faults_to_dev;
          g.Paged.bytes_to_dev; g.Paged.faults_to_host; g.Paged.bytes_to_host ])
      r.Interp.page_stats
  in
  check Alcotest.(option (list int)) (name ^ ": page stats") (pages c)
    (pages t);
  let transfers (r : Interp.result) =
    let d = r.Interp.dev_stats in
    [ d.Device.htod_bytes; d.Device.htod_count; d.Device.dtoh_bytes;
      d.Device.dtoh_count ]
  in
  check Alcotest.(list int) (name ^ ": device transfers") (transfers c)
    (transfers t);
  check Alcotest.(float 0.0) (name ^ ": communication cycles") c.Interp.comm
    t.Interp.comm

let paged_engines_agree () =
  List.iter
    (fun (name, src) ->
      List.iter
        (fun (ename, exec) ->
          let run engine =
            snd (Pipeline.run ~engine ~backend:Mem_backend.Paged exec src)
          in
          let c = run Interp.Closures and t = run Interp.Tree_walk in
          engines_agree (name ^ " " ^ ename) c t;
          let pb = Cost_model.default.Cost_model.page_bytes in
          let s = Option.get c.Interp.page_stats in
          check Alcotest.bool (name ^ ": page-granular accounting") true
            (s.Paged.bytes_to_dev = s.Paged.faults_to_dev * pb
            && s.Paged.bytes_to_host = s.Paged.faults_to_host * pb))
        [ ("unopt", Pipeline.Cgcm_unoptimized); ("opt", Pipeline.Cgcm_optimized) ])
    Test_fastpath.small_programs

(* ------------------------------------------------------------------ *)
(* Memo invalidation: closures vs the tree walker                      *)

let run_ir ~engine ?(page_bytes = Cost_model.default.Cost_model.page_bytes)
    src =
  Interp.run
    ~config:
      {
        Interp.default_config with
        engine;
        backend = Mem_backend.Paged;
        cost = { Cost_model.default with page_bytes };
      }
    (Cgcm_ir.Reader.parse_verified src)

(* [get] loads A[i]; main calls it on the host, kernel [bump] calls it
   on the device, and kernel [poke] reads the same page through a load
   site of its own. All of A and B sit on one page, so the page ping-
   pongs: [get]'s single load site is memoized from both sides, and its
   host memo goes stale whenever [poke] or [bump] pulls the page across
   from another site. *)
let shared_helper_ir =
  {|global A : 64 bytes = zeroed
global B : 64 bytes = zeroed

func get(1 args, 4 regs) {
b0:
  %r1 = mul %r0, 8
  %r2 = add @A, %r1
  %r3 = load.i64 %r2
  ret %r3
}

kernel bump(1 args, 6 regs) {
b0:
  %r1 = call get(%r0)
  %r2 = add %r1, 1
  %r3 = mul %r0, 8
  %r4 = add @A, %r3
  store.i64 %r4, %r2
  ret
}

kernel poke(1 args, 5 regs) {
b0:
  %r1 = mul %r0, 8
  %r2 = add @A, %r1
  %r3 = load.i64 %r2
  %r4 = add @B, %r1
  store.i64 %r4, %r3
  ret
}

func main(0 args, 12 regs) {
b0:
  %r0 = call get(0)
  launch poke<8>()
  %r1 = call get(0)
  launch bump<8>()
  %r2 = call get(1)
  %r3 = call get(1)
  launch bump<8>()
  launch poke<8>()
  %r4 = call get(2)
  %r5 = add %r0, %r1
  %r6 = add %r5, %r2
  %r7 = add %r6, %r3
  %r8 = add %r7, %r4
  call print_i64(%r8)
  ret 0
}
|}

let memo_shared_helper () =
  let c = run_ir ~engine:Interp.Closures shared_helper_ir
  and t = run_ir ~engine:Interp.Tree_walk shared_helper_ir in
  engines_agree "shared helper" c t;
  let g = Option.get c.Interp.page_stats in
  check Alcotest.bool "the page ping-pongs between the sides" true
    (g.Paged.faults_to_dev >= 3 && g.Paged.faults_to_host >= 3)

(* Kernel threads walk S byte by byte through one load and one store
   site: each site's memo covers one page, and the first byte past it is
   a page still on the host that must fault. *)
let byte_stream_ir =
  {|global S : 16 bytes = zeroed

kernel scan(1 args, 4 regs) {
b0:
  %r1 = add @S, %r0
  %r2 = load.i8 %r1
  %r3 = add %r2, 1
  store.i8 %r1, %r3
  ret
}

func main(0 args, 2 regs) {
b0:
  launch scan<16>()
  launch scan<16>()
  %r0 = add @S, 15
  %r1 = load.i8 %r0
  call print_i64(%r1)
  ret 0
}
|}

(* Pages smaller than a word: every 8-byte access straddles two or more
   pages and must never be memoized, while byte accesses still are. *)
let memo_straddling_pages () =
  List.iter
    (fun page_bytes ->
      List.iter
        (fun (name, ir) ->
          let c = run_ir ~engine:Interp.Closures ~page_bytes ir
          and t = run_ir ~engine:Interp.Tree_walk ~page_bytes ir in
          engines_agree (Printf.sprintf "%s, %d-byte pages" name page_bytes) c t)
        [ ("shared helper", shared_helper_ir); ("byte stream", byte_stream_ir) ];
      List.iter
        (fun (name, src) ->
          let run engine =
            snd
              (Pipeline.run ~engine ~page_bytes ~backend:Mem_backend.Paged
                 Pipeline.Cgcm_optimized src)
          in
          engines_agree
            (Printf.sprintf "%s, %d-byte pages" name page_bytes)
            (run Interp.Closures) (run Interp.Tree_walk))
        [
          ("atax", Test_fastpath.small_programs |> List.assoc "atax");
          ("nw", Test_fastpath.small_programs |> List.assoc "nw");
          ("blackscholes",
           Test_fastpath.small_programs |> List.assoc "blackscholes");
        ])
    [ 1; 3; 4; 7 ]

(* Inspector-executor: each launch records into a fresh table, so a
   site's memo from the first launch must not suppress its record in the
   second; within a launch the kernel reads and then writes A and C, so
   the read record must not hide the write. *)
let ie_read_write_src =
  {|global float A[32];
global float B[32];
global char C[40];

int main() {
  for (int i = 0; i < 32; i++) {
    A[i] = i;
  }
  for (int r = 0; r < 2; r++) {
    for (int i = 0; i < 32; i++) {
      A[i] = A[i] + B[i] + 1.0;
    }
    for (int i = 0; i < 32; i++) {
      B[i] = A[i] * 2.0;
      C[i] = C[i] + 1;
    }
  }
  float s = 0.0;
  for (int i = 0; i < 32; i++) {
    s = s + A[i] + B[i] + C[i];
  }
  print(s);
  return 0;
}
|}

let memo_ie_launches () =
  let run engine =
    snd (Pipeline.run ~engine Pipeline.Inspector_executor_exec ie_read_write_src)
  in
  let c = run Interp.Closures and t = run Interp.Tree_walk in
  engines_agree "ie read-then-write" c t;
  check Alcotest.(float 0.0) "ie: clocks agree" c.Interp.wall t.Interp.wall;
  let d = c.Interp.dev_stats in
  check Alcotest.bool "every launch pays its own oracle transfers" true
    (d.Device.dtoh_count >= 5 && d.Device.htod_count >= 5)

(* ------------------------------------------------------------------ *)
(* Page-accounting properties against a reference model. The model is
   the spec from paged.ml's header: one side per page, first touch
   populates free, same-side touches free, cross-side touches migrate
   the whole page. *)

let touch_seq_gen =
  QCheck2.Gen.(
    list_size (int_range 1 80)
      (triple bool (int_bound 40_000) (int_range 1 6000)))

let drive ?(dup = false) seq =
  let dev = Device.create Cost_model.default in
  let pg = Paged.create ~dev Cost_model.default in
  let host_cost = ref 0.0 in
  List.iter
    (fun (kernel, addr, len) ->
      host_cost := !host_cost +. Paged.touch pg ~kernel ~addr ~len;
      if dup then host_cost := !host_cost +. Paged.touch pg ~kernel ~addr ~len)
    seq;
  (Paged.stats pg, Paged.fault_cost pg, !host_cost)

(* the reference model: page index -> on-device? *)
let model seq =
  let pb = Cost_model.default.Cost_model.page_bytes in
  let tbl = Hashtbl.create 64 in
  let to_dev = ref 0 and to_host = ref 0 in
  List.iter
    (fun (kernel, addr, len) ->
      for p = addr / pb to (addr + len - 1) / pb do
        match Hashtbl.find_opt tbl p with
        | None -> Hashtbl.replace tbl p kernel
        | Some side when side = kernel -> ()
        | Some _ ->
          Hashtbl.replace tbl p kernel;
          if kernel then incr to_dev else incr to_host
      done)
    seq;
  (Hashtbl.length tbl, !to_dev, !to_host)

let prop_model =
  QCheck2.Test.make ~name:"paged accounting agrees with reference model"
    ~count:300 touch_seq_gen (fun seq ->
      let st, _, _ = drive seq in
      let pages, to_dev, to_host = model seq in
      st.Paged.touched_pages = pages
      && st.Paged.faults_to_dev = to_dev
      && st.Paged.faults_to_host = to_host)

let prop_page_granular =
  QCheck2.Test.make
    ~name:"migrated bytes are exactly faults times the page size" ~count:300
    touch_seq_gen (fun seq ->
      let st, _, _ = drive seq in
      let pb = Cost_model.default.Cost_model.page_bytes in
      st.Paged.bytes_to_dev = st.Paged.faults_to_dev * pb
      && st.Paged.bytes_to_host = st.Paged.faults_to_host * pb)

let prop_no_double_charge =
  QCheck2.Test.make
    ~name:"re-touching from the same side is never charged" ~count:300
    touch_seq_gen (fun seq ->
      let st1, _, c1 = drive seq in
      let st2, _, c2 = drive ~dup:true seq in
      st1.Paged.faults_to_dev = st2.Paged.faults_to_dev
      && st1.Paged.faults_to_host = st2.Paged.faults_to_host
      && st1.Paged.touched_pages = st2.Paged.touched_pages
      && c1 = c2)

let prop_single_side_free =
  QCheck2.Test.make ~name:"a single-side access pattern never faults"
    ~count:300 touch_seq_gen (fun seq ->
      let host_only = List.map (fun (_, a, l) -> (false, a, l)) seq in
      let st, _, c = drive host_only in
      st.Paged.faults_to_dev = 0 && st.Paged.faults_to_host = 0 && c = 0.0)

let prop_host_cost =
  QCheck2.Test.make
    ~name:"host stall cycles equal host-bound faults times fault cost"
    ~count:300 touch_seq_gen (fun seq ->
      let st, fault_cost, c = drive seq in
      c = float_of_int st.Paged.faults_to_host *. fault_cost)

(* ------------------------------------------------------------------ *)
(* Byte-size suffix parsing (--device-mem / --page-bytes)              *)

let bytesize_parses () =
  let ok s v =
    match Bytesize.parse s with
    | Ok n -> check Alcotest.int s v n
    | Error e -> Alcotest.failf "%s failed to parse: %s" s e
  in
  ok "4096" 4096;
  ok "0" 0;
  ok "64KiB" 65536;
  ok "1MiB" (1024 * 1024);
  ok "2GiB" (2 * 1024 * 1024 * 1024);
  List.iter
    (fun s ->
      check Alcotest.bool (s ^ " rejected") true
        (match Bytesize.parse s with Error _ -> true | Ok _ -> false))
    [ ""; "-1"; "64kb"; "12XB"; "KiB"; "1.5MiB"; "99999999999999999GiB" ]

(* Golden: the CLI surfaces Bytesize's message verbatim through the
   cmdliner converter, so pin the exact text here. *)
let bytesize_error_golden () =
  check Alcotest.string "parse error message"
    "invalid byte count \"12XB\" (expected an integer with an optional KiB, \
     MiB or GiB suffix, e.g. 65536, 64KiB, 1MiB)"
    (Bytesize.error_message "12XB");
  (match Bytesize.parse "12XB" with
  | Error e ->
    check Alcotest.string "parse returns the golden message"
      (Bytesize.error_message "12XB") e
  | Ok _ -> Alcotest.fail "12XB parsed");
  check Alcotest.string "to_string picks the largest exact unit" "64KiB"
    (Bytesize.to_string 65536);
  check Alcotest.string "to_string keeps inexact sizes raw" "65537"
    (Bytesize.to_string 65537)

(* ------------------------------------------------------------------ *)
(* serve: the "+paged" mode suffix selects the backend                 *)

let serve_source = Cgcm_progs.Polybench.gemm ~n:10 ()

let request ~id ~mode =
  {
    Wire.rq_id = id;
    rq_tenant = "t0";
    rq_source = serve_source;
    rq_mode = mode;
    rq_deadline = None;
    rq_strict = false;
    rq_faults = None;
  }

let serve_paged_suffix () =
  let eng = Engine.create () in
  let r1 = Engine.process eng (request ~id:1 ~mode:"opt+paged") in
  check Alcotest.string "opt+paged status" "ok" (Wire.status_name r1.Wire.rp_status);
  let _, reference =
    Pipeline.run ~backend:Mem_backend.Paged Pipeline.Cgcm_optimized
      serve_source
  in
  check Alcotest.string "opt+paged output bit-identical to single-shot"
    reference.Interp.output r1.Wire.rp_output;
  (* same compiled module as plain "opt": the backend shapes execution,
     not compilation, so the second request is a cache hit *)
  let r2 = Engine.process eng (request ~id:2 ~mode:"opt") in
  check Alcotest.string "plain opt rides the same cache entry" "hit"
    r2.Wire.rp_cache;
  check Alcotest.string "cache keys agree across backend suffixes"
    (Engine.cache_key_of_mode ~mode:"opt" serve_source)
    (Engine.cache_key_of_mode ~mode:"opt+paged" serve_source);
  (* an explicit suffix is accepted and means the default *)
  let r3 = Engine.process eng (request ~id:3 ~mode:"opt+explicit") in
  check Alcotest.string "opt+explicit output" r2.Wire.rp_output
    r3.Wire.rp_output;
  (* a bogus suffix is a typed error, not a crash *)
  let r4 = Engine.process eng (request ~id:4 ~mode:"opt+bogus") in
  check Alcotest.string "bogus suffix rejected" "error"
    (Wire.status_name r4.Wire.rp_status);
  (* paged requests never warm residency: there are no warm units to
     establish under a single address space *)
  let eng2 = Engine.create () in
  let _ = Engine.process eng2 (request ~id:5 ~mode:"unopt+paged") in
  check Alcotest.int "no residency warmed by a paged request" 0
    (Cgcm_serve.Residency.warm_bytes (Engine.residency eng2))

(* ------------------------------------------------------------------ *)
(* Golden pin of every communication strategy                           *)

(* The differential tests above compare engines and backends with each
   other, so a change that shifts both sides at once passes them. This
   golden file pins the absolute results instead: for each small suite
   program under each strategy (and both paged pairs under the tree
   walker, plus opt under the sanitizer) it records the exit code,
   output, every simulated clock in exact hex-float form, instruction
   counts, device, run-time and page statistics, the leak report and
   the sanitizer report. Regenerate with
   CGCM_UPDATE_GOLDEN=test/golden dune exec test/test_main.exe -- test
   membackend *)

let golden_configs =
  let open Pipeline in
  [
    ("seq", Sequential, Interp.Closures, Mem_backend.Explicit, false);
    ("unopt", Cgcm_unoptimized, Interp.Closures, Mem_backend.Explicit, false);
    ("opt", Cgcm_optimized, Interp.Closures, Mem_backend.Explicit, false);
    ("ie", Inspector_executor_exec, Interp.Closures, Mem_backend.Explicit, false);
    ("unopt+paged", Cgcm_unoptimized, Interp.Closures, Mem_backend.Paged, false);
    ("opt+paged", Cgcm_optimized, Interp.Closures, Mem_backend.Paged, false);
    ("unopt+paged/tree", Cgcm_unoptimized, Interp.Tree_walk, Mem_backend.Paged,
     false);
    ("opt+paged/tree", Cgcm_optimized, Interp.Tree_walk, Mem_backend.Paged,
     false);
    ("opt/sanitize", Cgcm_optimized, Interp.Closures, Mem_backend.Explicit, true);
  ]

let render_result buf (r : Interp.result) =
  let p fmt = Printf.bprintf buf fmt in
  p "exit %Ld\n" r.Interp.exit_code;
  p "output %S\n" r.Interp.output;
  p "cycles wall=%h cpu=%h gpu=%h comm=%h sync=%h\n" r.Interp.wall
    r.Interp.cpu_compute r.Interp.gpu r.Interp.comm r.Interp.sync;
  p "insts cpu=%d kernel=%d\n" r.Interp.cpu_insts r.Interp.kernel_insts;
  let d = r.Interp.dev_stats in
  p "dev htod=%d/%d dtoh=%d/%d launches=%d insts=%d kernel=%h comm=%h \
     sync=%h\n"
    d.Device.htod_bytes d.Device.htod_count d.Device.dtoh_bytes
    d.Device.dtoh_count d.Device.launches d.Device.kernel_insts
    d.Device.kernel_cycles d.Device.comm_cycles d.Device.sync_cycles;
  let s = r.Interp.rt_stats in
  p "rt map=%d unmap=%d release=%d map_array=%d skipped_unmaps=%d \
     skipped_copies=%d partial=%d saved=%d evictions=%d retries=%d \
     fallbacks=%d\n"
    s.Runtime.map_calls s.Runtime.unmap_calls s.Runtime.release_calls
    s.Runtime.map_array_calls s.Runtime.skipped_unmaps
    s.Runtime.skipped_copies s.Runtime.partial_copies s.Runtime.bytes_saved
    s.Runtime.evictions s.Runtime.retries s.Runtime.cpu_fallbacks;
  (match r.Interp.page_stats with
  | Some g ->
    p "pages touches=%d pages=%d to_dev=%d/%d to_host=%d/%d\n"
      g.Paged.touches g.Paged.touched_pages g.Paged.faults_to_dev
      g.Paged.bytes_to_dev g.Paged.faults_to_host g.Paged.bytes_to_host
  | None -> p "pages none\n");
  let l = r.Interp.leaks in
  p "leaks nonglobal=%d global=%d refs=%d blocks=%d bytes=%d\n"
    l.Runtime.resident_nonglobal l.Runtime.resident_global
    l.Runtime.refcount_sum l.Runtime.leaked_dev_blocks
    l.Runtime.leaked_dev_bytes;
  match r.Interp.san_report with
  | Some rep -> p "san %s\n" (Cgcm_sanitizer.Sanitizer.render_report rep)
  | None -> p "san none\n"

let render_golden () =
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun (name, src) ->
      List.iter
        (fun (cname, exec, engine, backend, sanitize) ->
          Printf.bprintf buf "== %s %s\n" name cname;
          render_result buf
            (snd (Pipeline.run ~engine ~backend ~sanitize exec src)))
        golden_configs)
    Test_fastpath.small_programs;
  Buffer.contents buf

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let golden_strategies () =
  let got = render_golden () in
  let file = "strategies.golden" in
  match Sys.getenv_opt "CGCM_UPDATE_GOLDEN" with
  | Some dir ->
    let oc = open_out_bin (Filename.concat dir file) in
    output_string oc got;
    close_out oc
  | None -> (
    (* dune runtest runs in the test directory with golden/ staged as a
       dep; dune exec from the repo root sees the source tree instead *)
    match
      List.find_opt Sys.file_exists
        [ Filename.concat "golden" file;
          Filename.concat (Filename.concat "test" "golden") file ]
    with
    | None ->
      Alcotest.failf
        "golden file %s missing — regenerate with \
         CGCM_UPDATE_GOLDEN=test/golden dune exec test/test_main.exe -- \
         test membackend"
        file
    | Some path ->
      (* report the first differing line, not two 100 KB strings *)
      let want = String.split_on_char '\n' (read_file path)
      and have = String.split_on_char '\n' got in
      let rec first i = function
        | w :: ws, h :: hs -> if w = h then first (i + 1) (ws, hs) else Some (i, w, h)
        | [], [] -> None
        | w :: _, [] -> Some (i, w, "<end of output>")
        | [], h :: _ -> Some (i, "<end of file>", h)
      in
      match first 1 (want, have) with
      | None -> ()
      | Some (i, w, h) ->
        Alcotest.failf "%s line %d differs:\n  golden: %s\n  actual: %s" file
          i w h)

(* ------------------------------------------------------------------ *)
(* The claims gate's backend claims hold on real small-program results
   and fail on counter-examples made from them: one paged output that
   differs, one paged run that leaks, and no program where paging costs
   2x the explicit copies. *)

let backend_claims () =
  (* blackscholes at 3000 options: explicit copies win 2.9x (at 200
     options, paging wins with 0.4x) *)
  let results =
    List.map
      (fun (name, source) ->
        let prog = Option.get (Cgcm_progs.Registry.find name) in
        E.run_program { prog with Cgcm_progs.Registry.source })
      [
        ("blackscholes", Cgcm_progs.Others.blackscholes ~options:3000 ());
        ("gemm", List.assoc "gemm" Test_fastpath.small_programs);
        ("srad", List.assoc "srad" Test_fastpath.small_programs);
      ]
  in
  let paged =
    List.map
      (fun r ->
        snd
          (Pipeline.run ~backend:Mem_backend.Paged Pipeline.Cgcm_optimized
             r.E.prog.Cgcm_progs.Registry.source))
      results
  in
  let verdicts paged =
    List.map (fun c -> c.Validate.ok) (Validate.backend_claims results ~paged)
  in
  let on_first f = function pg :: rest -> f pg :: rest | [] -> [] in
  check Alcotest.(list bool) "both claims hold on real results" [ true; true ]
    (verdicts paged);
  check Alcotest.(list bool) "a differing paged output fails agreement"
    [ false; true ]
    (verdicts
       (on_first
          (fun pg -> { pg with Interp.output = pg.Interp.output ^ "0\n" })
          paged));
  check Alcotest.(list bool) "a leaking paged run fails agreement" [ false; true ]
    (verdicts
       (on_first
          (fun pg ->
            { pg with
              Interp.leaks = { pg.Interp.leaks with Runtime.resident_nonglobal = 1 } })
          paged));
  check Alcotest.(list bool) "no 2x program fails the explicit-wins claim"
    [ true; false ]
    (verdicts
       (List.map2
          (fun r pg -> { pg with Interp.wall = r.E.opt.Interp.wall })
          results paged));
  let text, ok =
    Validate.report results
      ~paged:(on_first (fun pg -> { pg with Interp.exit_code = 1L }) paged)
  in
  check Alcotest.bool "the report fails with them" false ok;
  check Alcotest.bool "and names the program" true
    (Test_report.contains_sub text "blackscholes")

let tests =
  [
    Alcotest.test_case "backend differential (unopt, suite)" `Slow
      (backend_differential Pipeline.Cgcm_unoptimized);
    Alcotest.test_case "backend differential (opt, suite)" `Slow
      (backend_differential Pipeline.Cgcm_optimized);
    Alcotest.test_case "paged: engines agree" `Slow paged_engines_agree;
    Alcotest.test_case "memo: helper shared by host and kernel" `Quick
      memo_shared_helper;
    Alcotest.test_case "memo: accesses straddling small pages" `Slow
      memo_straddling_pages;
    Alcotest.test_case "memo: inspector records per launch" `Quick
      memo_ie_launches;
    QCheck_alcotest.to_alcotest prop_model;
    QCheck_alcotest.to_alcotest prop_page_granular;
    QCheck_alcotest.to_alcotest prop_no_double_charge;
    QCheck_alcotest.to_alcotest prop_single_side_free;
    QCheck_alcotest.to_alcotest prop_host_cost;
    Alcotest.test_case "bytesize: suffixes parse" `Quick bytesize_parses;
    Alcotest.test_case "bytesize: golden error message" `Quick
      bytesize_error_golden;
    Alcotest.test_case "serve: +paged mode suffix" `Slow serve_paged_suffix;
    Alcotest.test_case "golden: every strategy on the small suite" `Slow
      golden_strategies;
    Alcotest.test_case "claims: backend agreement and explicit >= 2x" `Slow
      backend_claims;
  ]
