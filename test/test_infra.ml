(* Tests for the supporting infrastructure: the pass manager, the IR
   rewriting helpers, and the claim validator. *)

module Ir = Cgcm_ir.Ir
module Builder = Cgcm_ir.Builder
module Pass = Cgcm_transform.Pass
module Rewrite = Cgcm_transform.Rewrite
module Pipeline = Cgcm_core.Pipeline
module E = Cgcm_core.Experiments
module Validate = Cgcm_core.Validate

let check = Alcotest.check

(* ------------------------------------------------------------------ *)

let test_pass_registry () =
  check Alcotest.int "five standard passes" 5 (List.length Pass.all);
  check Alcotest.bool "find map-promotion" true
    (Pass.find "map-promotion" <> None);
  check Alcotest.bool "find missing" true (Pass.find "nope" = None);
  check Alcotest.int "optimized extends managed"
    (List.length Pass.managed_pipeline + 3)
    (List.length Pass.optimized_pipeline)

let test_plan_parsing () =
  (match Pass.parse_plan "simplify,comm-mgmt,fixpoint(map-promotion)" with
  | Error e -> Alcotest.fail e
  | Ok plan ->
    check Alcotest.string "round-trips"
      "simplify,comm-mgmt,fixpoint(map-promotion)"
      (Pass.plan_to_string plan));
  (match Pass.parse_plan "managed,fixpoint(alloca-promotion,map-promotion)" with
  | Error e -> Alcotest.fail e
  | Ok plan ->
    check Alcotest.string "named plans inline"
      "simplify,comm-mgmt,fixpoint(alloca-promotion,map-promotion)"
      (Pass.plan_to_string plan));
  (match Pass.parse_plan "optimized" with
  | Error e -> Alcotest.fail e
  | Ok plan ->
    check Alcotest.string "optimized plan spelling"
      (Pass.plan_to_string Pass.optimized_pipeline)
      (Pass.plan_to_string plan));
  check Alcotest.bool "unknown pass rejected" true
    (match Pass.parse_plan "simplify,nope" with
    | Error _ -> true
    | Ok _ -> false);
  check Alcotest.bool "empty item rejected" true
    (match Pass.parse_plan "simplify,," with Error _ -> true | Ok _ -> false)

let test_pass_pipeline_runs () =
  let src = Cgcm_progs.Polybench.gemm ~n:6 () in
  let c = Pipeline.compile ~level:Pipeline.Unmanaged src in
  let before = Pass.instr_count c.Pipeline.modul in
  Pass.run_pipeline Pass.optimized_pipeline c.Pipeline.modul;
  (* comm management adds run-time calls *)
  check Alcotest.bool "instructions added" true
    (Pass.instr_count c.Pipeline.modul > 0);
  ignore before

(* ------------------------------------------------------------------ *)

let diamond () =
  let b = Builder.create ~name:"f" ~nargs:1 ~kind:Ir.Cpu in
  let b1 = Builder.new_block b in
  let b2 = Builder.new_block b in
  let b3 = Builder.new_block b in
  Builder.cbr b (Ir.Reg 0) b1 b2;
  Builder.position_at b b1;
  Builder.br b b3;
  Builder.position_at b b2;
  Builder.br b b3;
  Builder.position_at b b3;
  Builder.ret b None;
  Builder.finish b

let test_split_edge () =
  let f = diamond () in
  let nb =
    Rewrite.split_edge f ~from_:1 ~to_:3
      ~instrs:[ Ir.Call (None, "print_i64", [ Ir.imm 1 ]) ]
  in
  check Alcotest.int "new block appended" 5 (Array.length f.Ir.blocks);
  (match f.Ir.blocks.(1).Ir.term with
  | Ir.Br t -> check Alcotest.int "redirected" nb t
  | _ -> Alcotest.fail "terminator shape");
  (match f.Ir.blocks.(nb).Ir.term with
  | Ir.Br 3 -> ()
  | _ -> Alcotest.fail "split block must jump to the old target");
  Cgcm_ir.Verifier.verify_func { Ir.globals = []; funcs = [ f ] } f

let test_make_preheader () =
  (* loop: b1 -> b1 with entry from b0 *)
  let b = Builder.create ~name:"f" ~nargs:1 ~kind:Ir.Cpu in
  let header = Builder.new_block b in
  let exit_ = Builder.new_block b in
  Builder.br b header;
  Builder.position_at b header;
  Builder.cbr b (Ir.Reg 0) header exit_;
  Builder.position_at b exit_;
  Builder.ret b None;
  let f = Builder.finish b in
  let loops = Cgcm_analysis.Loops.analyze f in
  check Alcotest.int "one loop" 1 (Array.length loops.Cgcm_analysis.Loops.loops);
  match Rewrite.make_preheader f loops ~li:0 with
  | None -> Alcotest.fail "expected a preheader"
  | Some ph ->
    (* the entry edge now goes through the preheader; the back edge stays *)
    (match f.Ir.blocks.(0).Ir.term with
    | Ir.Br t -> check Alcotest.int "entry redirected" ph t
    | _ -> Alcotest.fail "entry shape");
    (match f.Ir.blocks.(header).Ir.term with
    | Ir.Cbr (_, t1, _) -> check Alcotest.int "back edge intact" header t1
    | _ -> Alcotest.fail "header shape")

let test_substitute_values () =
  let b = Builder.create ~name:"f" ~nargs:1 ~kind:Ir.Cpu in
  let x = Builder.binop b Ir.Add (Ir.Reg 0) (Ir.imm 1) in
  Builder.ret b (Some x);
  let f = Builder.finish b in
  Rewrite.substitute_values f (function
    | Ir.Reg 0 -> Ir.imm 42
    | v -> v);
  match f.Ir.blocks.(0).Ir.instrs with
  | [ Ir.Binop (_, Ir.Add, Ir.Imm_int 42L, Ir.Imm_int 1L) ] -> ()
  | _ -> Alcotest.fail "substitution failed"

(* ------------------------------------------------------------------ *)

let test_validator_detects_failures () =
  (* feed the validator a doctored result where optimization "hurts" and
     outputs mismatch: it must flag both claims *)
  let prog = List.hd Cgcm_progs.Registry.all in
  let r = E.run_program { prog with Cgcm_progs.Registry.source = Cgcm_progs.Polybench.gemm ~n:6 () } in
  let broken =
    { r with E.outputs_match = false; opt = r.E.unopt; unopt = r.E.opt }
  in
  let text, ok = Validate.report [ broken ] ~paged:[ r.E.opt ] in
  check Alcotest.bool "flags failure" false ok;
  let contains_sub hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "mentions FAILED" true (contains_sub text "FAILED")

let tests =
  [
    Alcotest.test_case "pass registry" `Quick test_pass_registry;
    Alcotest.test_case "plan parsing" `Quick test_plan_parsing;
    Alcotest.test_case "pass pipeline runs" `Quick test_pass_pipeline_runs;
    Alcotest.test_case "split edge" `Quick test_split_edge;
    Alcotest.test_case "make preheader" `Quick test_make_preheader;
    Alcotest.test_case "substitute values" `Quick test_substitute_values;
    Alcotest.test_case "validator detects failures" `Quick
      test_validator_detects_failures;
  ]
