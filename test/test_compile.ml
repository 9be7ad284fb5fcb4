(* Block-compiled fast path pillars:

   - run-length table units: straight-line runs stop at control
     instructions, halts and I-cache line boundaries;
   - fuzzed byte-identity: on random structured programs, a compiled
     run's full JSON (every Stats counter, cache stats) and both
     architectural digests equal the interpreted run's, across widths,
     the tournament, TAGE and ISL-TAGE predictors, and under runahead. *)

open Bv_ir
open Bv_pipeline

let gen_program seed = Bv_workloads.Fuzzgen.generate ~seed

let machine_of config image =
  let st = Machine_state.create ~config image in
  Compile.attach st;
  st

let test_run_len () =
  let prog = gen_program 42 in
  let image = Layout.program prog in
  let st = machine_of Config.four_wide image in
  let n = st.Machine_state.code_len in
  Alcotest.(check int) "table sized" n (Array.length st.Machine_state.run_len);
  for pc = 0 to n - 1 do
    let rl = st.Machine_state.run_len.(pc) in
    (match st.Machine_state.code.(pc) with
    | Bv_isa.Instr.Branch _ | Bv_isa.Instr.Jump _ | Bv_isa.Instr.Call _
    | Bv_isa.Instr.Ret | Bv_isa.Instr.Predict _ | Bv_isa.Instr.Resolve _
    | Bv_isa.Instr.Halt ->
      Alcotest.(check int) (Printf.sprintf "control pc %d" pc) 0 rl
    | _ ->
      Alcotest.(check bool) (Printf.sprintf "simple pc %d" pc) true (rl >= 1));
    if rl > 0 then begin
      (* a run never crosses an I-cache line boundary *)
      Alcotest.(check int)
        (Printf.sprintf "run at pc %d stays in line" pc)
        (Machine_state.line_of st pc)
        (Machine_state.line_of st (pc + rl - 1));
      (* and is maximal: the next pc is a new line, control, or the end *)
      if pc + rl < n then
        Alcotest.(check bool)
          (Printf.sprintf "run at pc %d maximal" pc)
          true
          (Machine_state.line_of st (pc + rl) <> Machine_state.line_of st pc
          || st.Machine_state.run_len.(pc + rl) = 0)
    end
  done

let result_string res = Bv_obs.Json.to_string (Machine.result_to_json res)

let configs =
  Config.
    [ two_wide;
      four_wide;
      eight_wide;
      make ~predictor:Bv_bpred.Kind.Tage ~width:4 ();
      make ~predictor:Bv_bpred.Kind.Isl_tage ~width:8 ();
      { (make ~predictor:Bv_bpred.Kind.Tage ~width:8 ()) with runahead = true }
    ]

let prop_byte_identity =
  QCheck2.Test.make ~name:"compiled run = interpreted run (bit-for-bit)"
    ~count:30
    (QCheck2.Gen.int_range 0 100_000)
    (fun seed ->
      let image = Layout.program (gen_program seed) in
      List.for_all
        (fun config ->
          let a = Machine.run ~compile:true ~config image in
          let b = Machine.run ~compile:false ~config image in
          result_string a = result_string b
          && a.Machine.mem_digest = b.Machine.mem_digest
          && a.Machine.arch_digest = b.Machine.arch_digest)
        configs)

let () =
  Alcotest.run "bv_compile"
    [ ("run-len", [ Alcotest.test_case "table invariants" `Quick test_run_len ]);
      ( "byte-identity",
        [ QCheck_alcotest.to_alcotest prop_byte_identity ] )
    ]
