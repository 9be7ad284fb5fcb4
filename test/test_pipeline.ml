open Bv_isa
open Bv_ir
open Bv_pipeline

let r = Reg.make
let movi d v = Instr.Mov { dst = r d; src = Instr.Imm v }
let addi d a v = Instr.Alu { op = Instr.Add; dst = r d; src1 = r a; src2 = Instr.Imm v }
let block ?(body = []) label term = Block.make ~label ~body ~term

let image ?segments ?mem_words procs =
  Layout.program (Program.make ?segments ?mem_words ~main:"m" procs)

let run ?(config = Config.four_wide) ?max_cycles img =
  Machine.run ?max_cycles ~config img

(* ------------------------------------------------------------------ DBB *)

let alloc d pc = Dbb.allocate d ~pc ~meta:[| pc |] ~taken:true

let test_dbb_alloc_claim_free () =
  let d = Dbb.create ~entries:2 in
  Alcotest.(check int) "capacity" 2 (Dbb.capacity d);
  let s0 = alloc d 10 in
  let s1 = alloc d 20 in
  Alcotest.(check bool) "full" true (Dbb.is_full d);
  Alcotest.(check int) "full alloc fails" (-1) (alloc d 30);
  (* claim order: newest first *)
  let c1 = Dbb.claim_newest d in
  Alcotest.(check int) "newest" 20 (Dbb.slot_pc d c1);
  Alcotest.(check int) "slot" s1 c1;
  let c0 = Dbb.claim_newest d in
  Alcotest.(check int) "then older" 10 (Dbb.slot_pc d c0);
  Alcotest.(check int) "slot" s0 c0;
  Alcotest.(check bool) "claimed direction" true (Dbb.slot_taken d c0);
  Alcotest.(check int) "all claimed" (-1) (Dbb.claim_newest d);
  Dbb.free d c1;
  Dbb.free d c1;
  (* idempotent *)
  Alcotest.(check int) "occupancy" 1 (Dbb.occupancy d)

let test_dbb_snapshot_no_resurrection () =
  let d = Dbb.create ~entries:4 in
  let s0 = alloc d 10 in
  let snap = Dbb.create_snapshot d in
  Dbb.snapshot_into d snap;
  (* an older resolve frees the entry after the snapshot was taken *)
  Dbb.free d s0;
  (* a wrong-path predict allocates something new *)
  ignore (alloc d 99);
  Dbb.restore d snap;
  (* the freed entry must NOT come back, and the wrong-path one is gone *)
  Alcotest.(check int) "empty after restore" 0 (Dbb.occupancy d);
  Alcotest.(check int) "nothing to claim" (-1) (Dbb.claim_newest d)

let test_dbb_snapshot_claim_revert () =
  let d = Dbb.create ~entries:4 in
  ignore (alloc d 10);
  let snap = Dbb.create_snapshot d in
  Dbb.snapshot_into d snap;
  ignore (Dbb.claim_newest d);
  (* wrong-path claim *)
  Dbb.restore d snap;
  Alcotest.(check bool) "claim reverted" true (Dbb.claim_newest d >= 0)

(* --------------------------------------------------------------- config *)

let test_config () =
  Alcotest.(check int) "two wide" 2 Config.two_wide.Config.width;
  Alcotest.(check int) "fetch buffer" 32 Config.four_wide.Config.fetch_buffer;
  Alcotest.(check int) "dbb" 16 Config.eight_wide.Config.dbb_entries;
  (match Config.make ~width:3 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "width 3 must be rejected");
  let s = Format.asprintf "%a" Config.pp Config.four_wide in
  Alcotest.(check bool) "table prints" true (String.length s > 100)

(* -------------------------------------------------------------- machine *)

let straight_line body = image [ Proc.make ~name:"m" [ block ~body "e" Term.Halt ] ]

let test_dependent_chain_latency () =
  (* N dependent adds cannot run faster than one per cycle *)
  let n = 50 in
  let body = movi 1 0 :: List.init n (fun _ -> addi 1 1 1) in
  let res = run (straight_line body) in
  Alcotest.(check bool) "finished" true res.Machine.finished;
  Alcotest.(check bool)
    (Printf.sprintf "chain >= n cycles (%d)" res.Machine.stats.Stats.cycles)
    true
    (res.Machine.stats.Stats.cycles >= n)

let test_width_parallelism () =
  (* a hot loop of independent work sustains multi-issue once the I$ is
     warm; the 4-wide beats the 2-wide *)
  let loop n =
    image
      [ Proc.make ~name:"m"
          [ block ~body:[ movi 1 0 ] "e" (Term.Jump "loop");
            block
              ~body:
                [ movi 2 2; movi 3 3; movi 4 4; movi 7 7; movi 8 8;
                  addi 1 1 1;
                  Instr.Cmp { op = Instr.Lt; dst = r 5; src1 = r 1;
                              src2 = Instr.Imm n }
                ]
              "loop"
              (Term.Branch
                 { on = true; src = r 5; taken = "loop"; not_taken = "out";
                   id = 1 });
            block "out" Term.Halt
          ]
      ]
  in
  let res4 = run (loop 500) in
  let res2 = run ~config:Config.two_wide (loop 500) in
  let ipc = Stats.ipc res4.Machine.stats in
  Alcotest.(check bool) (Printf.sprintf "ipc %.2f > 1.4" ipc) true (ipc > 1.4);
  Alcotest.(check bool) "4-wide beats 2-wide" true
    (res4.Machine.stats.Stats.cycles < res2.Machine.stats.Stats.cycles)

let test_digest_matches_interpreter () =
  let n = 300 in
  let stream = Array.init n (fun i -> (i * 13 / 5) mod 3) in
  let prog =
    Program.make ~main:"m" ~mem_words:1024
      ~segments:[ { Program.base = 0; contents = stream } ]
      [ Proc.make ~name:"m"
          [ block ~body:[ movi 1 0; movi 6 0 ] "e" (Term.Jump "loop");
            block
              ~body:
                [ Instr.Alu { op = Instr.Shl; dst = r 2; src1 = r 1; src2 = Instr.Imm 3 };
                  Instr.Load { dst = r 4; base = r 2; offset = 0; speculative = false };
                  Instr.Cmp { op = Instr.Ne; dst = r 5; src1 = r 4; src2 = Instr.Imm 0 }
                ]
              "loop"
              (Term.Branch
                 { on = true; src = r 5; taken = "t"; not_taken = "nt"; id = 1 });
            block ~body:[ addi 6 6 1 ] "nt" (Term.Jump "latch");
            block ~body:[ addi 6 6 100; Instr.Store { src = r 6; base = r 2; offset = 4096 } ]
              "t" (Term.Jump "latch");
            block
              ~body:
                [ addi 1 1 1;
                  Instr.Cmp { op = Instr.Lt; dst = r 5; src1 = r 1; src2 = Instr.Imm n }
                ]
              "latch"
              (Term.Branch
                 { on = true; src = r 5; taken = "loop"; not_taken = "out"; id = 2 });
            block ~body:[ Instr.Store { src = r 6; base = r 0; offset = 8000 } ]
              "out" Term.Halt
          ]
      ]
  in
  let img = Layout.program prog in
  let want = Bv_exec.Interp.arch_digest (Bv_exec.Interp.run img) in
  List.iter
    (fun config ->
      let res = run ~config img in
      Alcotest.(check bool) "finished" true res.Machine.finished;
      Alcotest.(check int)
        (Printf.sprintf "digest %s" (Config.name config))
        want res.Machine.arch_digest)
    [ Config.two_wide; Config.four_wide; Config.eight_wide ]

let test_wrong_path_stores_undone () =
  (* an unpredictable branch guards a store; wrong-path execution must not
     leave stray memory writes *)
  let n = 200 in
  let stream = Array.init n (fun i -> (i * 29) mod 7 / 3) in
  let prog =
    Program.make ~main:"m" ~mem_words:2048
      ~segments:[ { Program.base = 0; contents = stream } ]
      [ Proc.make ~name:"m"
          [ block ~body:[ movi 1 0; movi 6 0 ] "e" (Term.Jump "loop");
            block
              ~body:
                [ Instr.Alu { op = Instr.Shl; dst = r 2; src1 = r 1; src2 = Instr.Imm 3 };
                  Instr.Load { dst = r 4; base = r 2; offset = 0; speculative = false };
                  Instr.Cmp { op = Instr.Ne; dst = r 5; src1 = r 4; src2 = Instr.Imm 0 }
                ]
              "loop"
              (Term.Branch
                 { on = true; src = r 5; taken = "t"; not_taken = "nt"; id = 1 });
            block ~body:[ Instr.Store { src = r 1; base = r 2; offset = 8192 } ]
              "nt" (Term.Jump "latch");
            block ~body:[ addi 6 6 1 ] "t" (Term.Jump "latch");
            block
              ~body:
                [ addi 1 1 1;
                  Instr.Cmp { op = Instr.Lt; dst = r 5; src1 = r 1; src2 = Instr.Imm n }
                ]
              "latch"
              (Term.Branch
                 { on = true; src = r 5; taken = "loop"; not_taken = "out"; id = 2 });
            block "out" Term.Halt
          ]
      ]
  in
  let img = Layout.program prog in
  let want = Bv_exec.Interp.arch_digest (Bv_exec.Interp.run img) in
  let res = run img in
  Alcotest.(check int) "memory clean after squashes" want
    res.Machine.arch_digest;
  Alcotest.(check bool) "there were mispredicts" true
    (res.Machine.stats.Stats.branch_mispredicts > 0);
  Alcotest.(check bool) "wrong-path issue happened" true
    (res.Machine.stats.Stats.squashed_fetched > 0)

let test_mispredict_costs_cycles () =
  (* same instruction count, random vs constant condition *)
  let mk stream_vals =
    let n = Array.length stream_vals in
    image ~mem_words:512
      ~segments:[ { Program.base = 0; contents = stream_vals } ]
      [ Proc.make ~name:"m"
          [ block ~body:[ movi 1 0; movi 6 0 ] "e" (Term.Jump "loop");
            block
              ~body:
                [ Instr.Alu { op = Instr.Shl; dst = r 2; src1 = r 1; src2 = Instr.Imm 3 };
                  Instr.Load { dst = r 4; base = r 2; offset = 0; speculative = false };
                  Instr.Cmp { op = Instr.Ne; dst = r 5; src1 = r 4; src2 = Instr.Imm 0 }
                ]
              "loop"
              (Term.Branch
                 { on = true; src = r 5; taken = "t"; not_taken = "nt"; id = 1 });
            block ~body:[ addi 6 6 1 ] "nt" (Term.Jump "latch");
            block ~body:[ addi 6 6 2 ] "t" (Term.Jump "latch");
            block
              ~body:
                [ addi 1 1 1;
                  Instr.Cmp { op = Instr.Lt; dst = r 5; src1 = r 1; src2 = Instr.Imm n }
                ]
              "latch"
              (Term.Branch
                 { on = true; src = r 5; taken = "loop"; not_taken = "out"; id = 2 });
            block "out" Term.Halt
          ]
      ]
  in
  let n = 400 in
  let rng = Bv_workloads.Rng.create ~seed:7 in
  let random = mk (Array.init n (fun _ -> Bv_workloads.Rng.below rng 2)) in
  let constant = mk (Array.make n 1) in
  let cr = run random and cc = run constant in
  Alcotest.(check bool) "random stream mispredicts more" true
    (cr.Machine.stats.Stats.branch_mispredicts
    > cc.Machine.stats.Stats.branch_mispredicts + 50);
  Alcotest.(check bool) "and costs cycles" true
    (cr.Machine.stats.Stats.cycles > cc.Machine.stats.Stats.cycles)

let test_max_cycles_cap () =
  let img = image [ Proc.make ~name:"m" [ block "e" (Term.Jump "e") ] ] in
  let res = run ~max_cycles:500 img in
  Alcotest.(check bool) "not finished" false res.Machine.finished;
  Alcotest.(check int) "capped" 500 res.Machine.stats.Stats.cycles

let test_ret_depth_beyond_ras () =
  (* deep call chain exceeding the RAS still executes correctly *)
  let depth = 12 in
  let procs =
    List.init depth (fun i ->
        let name = Printf.sprintf "f%d" i in
        if i = depth - 1 then
          Proc.make ~name [ block ~body:[ movi 6 99 ] (name ^ ".e") Term.Ret ]
        else
          Proc.make ~name
            [ block (name ^ ".e")
                (Term.Call
                   { target = Printf.sprintf "f%d" (i + 1);
                     return_to = name ^ ".r"
                   });
              block ~body:[ addi 6 6 1 ] (name ^ ".r") Term.Ret
            ])
  in
  let main =
    Proc.make ~name:"m"
      [ block "e" (Term.Call { target = "f0"; return_to = "done" });
        block ~body:[ Instr.Store { src = r 6; base = r 0; offset = 0 } ]
          "done" Term.Halt
      ]
  in
  let config =
    { Config.four_wide with Config.ras_entries = 4 }
  in
  let img = image ~mem_words:4 (main :: procs) in
  let want = Bv_exec.Interp.arch_digest (Bv_exec.Interp.run img) in
  let res = run ~config img in
  Alcotest.(check bool) "finished" true res.Machine.finished;
  Alcotest.(check int) "digest" want res.Machine.arch_digest

let test_decomposed_machine_path () =
  (* run a transformed program: resolves execute, DBB cycles, digest holds *)
  let n = 200 in
  let stream = Array.init n (fun i -> if i mod 3 = 0 then 1 else 0) in
  let prog =
    Program.make ~main:"m" ~mem_words:256
      ~segments:[ { Program.base = 0; contents = stream } ]
      [ Proc.make ~name:"m"
          [ block ~body:[ movi 1 0; movi 6 0 ] "entry" (Term.Jump "head");
            block
              ~body:
                [ Instr.Alu { op = Instr.Shl; dst = r 2; src1 = r 1; src2 = Instr.Imm 3 };
                  Instr.Load { dst = r 4; base = r 2; offset = 0; speculative = false };
                  Instr.Cmp { op = Instr.Ne; dst = r 5; src1 = r 4; src2 = Instr.Imm 0 }
                ]
              "head"
              (Term.Branch
                 { on = true; src = r 5; taken = "c"; not_taken = "b"; id = 1 });
            block
              ~body:[ Instr.Load { dst = r 10; base = r 2; offset = 8; speculative = false };
                      addi 6 6 1 ]
              "b" (Term.Jump "latch");
            block ~body:[ addi 6 6 2 ] "c" (Term.Jump "latch");
            block
              ~body:
                [ addi 1 1 1;
                  Instr.Cmp { op = Instr.Lt; dst = r 5; src1 = r 1; src2 = Instr.Imm n }
                ]
              "latch"
              (Term.Branch
                 { on = true; src = r 5; taken = "head"; not_taken = "out"; id = 2 });
            block ~body:[ Instr.Store { src = r 6; base = r 0; offset = 1920 } ]
              "out" Term.Halt
          ]
      ]
  in
  let candidates =
    [ { Vanguard.Select.proc = "m"; block = "head"; site = 1; bias = 0.6;
        predictability = 0.95; executed = n }
    ]
  in
  let result = Vanguard.Transform.apply ~candidates prog in
  let img = Layout.program result.Vanguard.Transform.program in
  let want = Bv_exec.Interp.arch_digest (Bv_exec.Interp.run img) in
  let res = run img in
  Alcotest.(check bool) "finished" true res.Machine.finished;
  Alcotest.(check int) "digest" want res.Machine.arch_digest;
  Alcotest.(check int) "every predict resolved" n
    res.Machine.stats.Stats.resolve_execs;
  Alcotest.(check bool) "predicts fetched covers every iteration" true
    (res.Machine.stats.Stats.predicts_fetched >= n);
  Alcotest.(check bool) "dbb occupied" true
    (res.Machine.stats.Stats.dbb_max_occupancy >= 1)

let test_tiny_dbb_backpressure () =
  (* dbb_entries = 1 must still complete, with full-stalls counted *)
  let n = 120 in
  let stream = Array.init n (fun i -> i land 1) in
  let prog =
    Program.make ~main:"m" ~mem_words:128
      ~segments:[ { Program.base = 0; contents = stream } ]
      [ Proc.make ~name:"m"
          [ block ~body:[ movi 1 0; movi 6 0 ] "entry" (Term.Jump "head");
            block
              ~body:
                [ Instr.Alu { op = Instr.Shl; dst = r 2; src1 = r 1; src2 = Instr.Imm 3 };
                  Instr.Load { dst = r 4; base = r 2; offset = 0; speculative = false };
                  Instr.Cmp { op = Instr.Ne; dst = r 5; src1 = r 4; src2 = Instr.Imm 0 }
                ]
              "head"
              (Term.Branch
                 { on = true; src = r 5; taken = "c"; not_taken = "b"; id = 1 });
            block ~body:[ addi 6 6 1 ] "b" (Term.Jump "latch");
            block ~body:[ addi 6 6 2 ] "c" (Term.Jump "latch");
            block
              ~body:
                [ addi 1 1 1;
                  Instr.Cmp { op = Instr.Lt; dst = r 5; src1 = r 1; src2 = Instr.Imm n }
                ]
              "latch"
              (Term.Branch
                 { on = true; src = r 5; taken = "head"; not_taken = "out"; id = 2 });
            block "out" Term.Halt
          ]
      ]
  in
  let candidates =
    [ { Vanguard.Select.proc = "m"; block = "head"; site = 1; bias = 0.5;
        predictability = 0.99; executed = n }
    ]
  in
  let result = Vanguard.Transform.apply ~candidates prog in
  let img = Layout.program result.Vanguard.Transform.program in
  let want = Bv_exec.Interp.arch_digest (Bv_exec.Interp.run img) in
  let config = { Config.four_wide with Config.dbb_entries = 1 } in
  let res = run ~config img in
  Alcotest.(check bool) "finished" true res.Machine.finished;
  Alcotest.(check int) "digest" want res.Machine.arch_digest;
  Alcotest.(check int) "max occupancy bounded" 1
    res.Machine.stats.Stats.dbb_max_occupancy

let test_trace_rows () =
  let n = 40 in
  let stream = Array.init n (fun i -> i land 1) in
  let img =
    image ~mem_words:64
      ~segments:[ { Program.base = 0; contents = stream } ]
      [ Proc.make ~name:"m"
          [ block ~body:[ movi 1 0; movi 6 0 ] "e" (Term.Jump "loop");
            block
              ~body:
                [ Instr.Alu { op = Instr.Shl; dst = r 2; src1 = r 1; src2 = Instr.Imm 3 };
                  Instr.Load { dst = r 4; base = r 2; offset = 0; speculative = false };
                  Instr.Cmp { op = Instr.Ne; dst = r 5; src1 = r 4; src2 = Instr.Imm 0 }
                ]
              "loop"
              (Term.Branch { on = true; src = r 5; taken = "t"; not_taken = "nt"; id = 1 });
            block ~body:[ addi 6 6 1 ] "nt" (Term.Jump "latch");
            block ~body:[ addi 6 6 2 ] "t" (Term.Jump "latch");
            block
              ~body:
                [ addi 1 1 1;
                  Instr.Cmp { op = Instr.Lt; dst = r 5; src1 = r 1; src2 = Instr.Imm n }
                ]
              "latch"
              (Term.Branch { on = true; src = r 5; taken = "loop"; not_taken = "out"; id = 2 });
            block "out" Term.Halt
          ]
      ]
  in
  let rows, result = Trace.collect ~max_rows:120 ~config:Config.four_wide img in
  Alcotest.(check bool) "finished" true result.Machine.finished;
  Alcotest.(check int) "rows capped" 120 (List.length rows);
  List.iter
    (fun row ->
      (match row.Trace.issue with
      | Some i ->
        Alcotest.(check bool) "fetch+front <= issue" true
          (row.Trace.fetch + Config.four_wide.Config.front_stages <= i);
        (match row.Trace.complete with
        | Some c -> Alcotest.(check bool) "issue < complete" true (i < c)
        | None -> ())
      | None ->
        (* never issued: must have been squashed *)
        Alcotest.(check bool) "unissued implies squashed" true
          row.Trace.squashed))
    rows;
  (* seqs are dense and increasing *)
  let seqs = List.map (fun row -> row.Trace.seq) rows in
  Alcotest.(check (list int)) "dense seq" (List.init 120 Fun.id) seqs;
  (* the alternating branch mispredicts during warmup: some squashes *)
  Alcotest.(check bool) "some squashed rows" true
    (List.exists (fun row -> row.Trace.squashed) rows);
  (* rendering smoke *)
  let text = Format.asprintf "%a" Trace.pp rows in
  Alcotest.(check bool) "renders" true (String.length text > 1000)

let test_site_wait_measured () =
  (* a branch fed by a fresh load waits ~load latency at issue *)
  let n = 64 in
  let stream = Array.make n 1 in
  let img =
    image ~mem_words:128
      ~segments:[ { Program.base = 0; contents = stream } ]
      [ Proc.make ~name:"m"
          [ block ~body:[ movi 1 0 ] "e" (Term.Jump "loop");
            block
              ~body:
                [ Instr.Alu { op = Instr.Shl; dst = r 2; src1 = r 1; src2 = Instr.Imm 3 };
                  Instr.Load { dst = r 4; base = r 2; offset = 0; speculative = false };
                  Instr.Cmp { op = Instr.Ne; dst = r 5; src1 = r 4; src2 = Instr.Imm 0 };
                  addi 1 1 1;
                  Instr.Cmp { op = Instr.Lt; dst = r 6; src1 = r 1; src2 = Instr.Imm n };
                  Instr.Alu { op = Instr.And; dst = r 5; src1 = r 5; src2 = Instr.Reg (r 6) }
                ]
              "loop"
              (Term.Branch { on = true; src = r 5; taken = "loop"; not_taken = "out"; id = 11 });
            block "out" Term.Halt
          ]
      ]
  in
  let res = run img in
  let w = Stats.site_wait_avg res.Machine.stats 11 in
  Alcotest.(check bool) (Printf.sprintf "backlog %.1f positive, bounded" w)
    true
    (w >= 1.0 && w <= 500.0);
  Alcotest.(check (float 0.001)) "unknown site" 0.0
    (Stats.site_wait_avg res.Machine.stats 999)

(* A suite benchmark at small scale: [Gen] gives its loop latches site
   ids >= 900_000, so per-site tables keyed by raw id would run to
   megabytes per run. They are sized by the image's sites instead. *)
let suite_images () =
  let spec = Option.get (Bv_workloads.Suites.find "mcf") in
  let b = Bv_harness.Runner.prepare { spec with Bv_workloads.Spec.reps = 2 } in
  [ ("mcf baseline", Bv_harness.Runner.baseline_program b ~input:1);
    ("mcf decomposed", Bv_harness.Runner.experimental_program b ~input:1)
  ]

(* A loop whose branch tests a freshly loaded word directly: the branch
   itself heads the issue queue operand-blocked, so its site collects
   stall cycles, on the compiled path through [Compile.skip_stalls].
   (Suite branches test a compare, which never leaves them blocked.) *)
let load_fed_branch_image () =
  let n = 64 in
  let stream = Array.init n (fun k -> if k = n - 1 then 0 else 1) in
  image ~mem_words:128
    ~segments:[ { Program.base = 0; contents = stream } ]
    [ Proc.make ~name:"m"
        [ block ~body:[ movi 1 0 ] "e" (Term.Jump "loop");
          block
            ~body:
              [ Instr.Alu { op = Instr.Shl; dst = r 2; src1 = r 1; src2 = Instr.Imm 3 };
                Instr.Load { dst = r 5; base = r 2; offset = 0; speculative = false };
                addi 1 1 1
              ]
            "loop"
            (Term.Branch
               { on = true; src = r 5; taken = "loop"; not_taken = "out"; id = 950_000 });
          block "out" Term.Halt
        ]
    ]

let reported_sites section json =
  List.map
    (fun row ->
      match Bv_obs.Json.member "site" row with
      | Some (Bv_obs.Json.Int id) -> id
      | _ -> Alcotest.fail "site row without an id")
    (Bv_obs.Json.to_list (Option.get (Bv_obs.Json.member section json)))

(* Runs [img] compiled and interpreted; checks the stats stay small,
   report the image's own sparse ids in order, and agree byte for byte. *)
let check_sparse_sites name img =
  let image_sites =
    Array.fold_left
      (fun acc i ->
        match i with
        | Instr.Branch { id; _ } | Instr.Resolve { id; _ } -> id :: acc
        | _ -> acc)
      [] img.Layout.code
  in
  let sparse ids = List.exists (fun id -> id >= 900_000) ids in
  Alcotest.(check bool) (name ^ ": image has sparse ids") true
    (sparse image_sites);
  let compiled = Machine.run ~compile:true ~config:Config.four_wide img in
  let interpreted = Machine.run ~compile:false ~config:Config.four_wide img in
  let stats = compiled.Machine.stats in
  let bytes = String.length (Marshal.to_string stats []) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: marshalled stats %d bytes < 16 KB" name bytes)
    true (bytes < 16 * 1024);
  let waits = reported_sites "site_waits" (Stats.to_json stats) in
  Alcotest.(check bool) (name ^ ": waits report sparse ids") true
    (sparse waits);
  Alcotest.(check bool) (name ^ ": waits are image sites, ascending") true
    (List.for_all (fun id -> List.mem id image_sites) waits
    && List.sort_uniq compare waits = waits);
  Alcotest.(check string) (name ^ ": compiled = interpreted")
    (Bv_obs.Json.to_string (Machine.result_to_json interpreted))
    (Bv_obs.Json.to_string (Machine.result_to_json compiled));
  stats

let test_sparse_site_stats () =
  List.iter
    (fun (name, img) -> ignore (check_sparse_sites name img))
    (suite_images ());
  let stats = check_sparse_sites "load-fed branch" (load_fed_branch_image ()) in
  Alcotest.(check (list int)) "load-fed branch: stall row" [ 950_000 ]
    (reported_sites "site_stalls" (Stats.to_json stats));
  Alcotest.(check bool) "load-fed branch: stall cycles" true
    (Stats.site_stall_cycles stats 950_000 > 0)

let test_stats_accounting () =
  let res = run (straight_line [ movi 1 1; movi 2 2 ]) in
  let s = res.Machine.stats in
  Alcotest.(check int) "retired = issued - squashed" (Stats.retired s)
    (s.Stats.issued - s.Stats.squashed_issued);
  Alcotest.(check bool) "ipc positive" true (Stats.ipc s > 0.0);
  Alcotest.(check (float 0.0001)) "no branches -> 0 mppki" 0.0 (Stats.mppki s)

let () =
  Alcotest.run "bv_pipeline"
    [ ( "dbb",
        [ Alcotest.test_case "alloc/claim/free" `Quick test_dbb_alloc_claim_free;
          Alcotest.test_case "no resurrection" `Quick
            test_dbb_snapshot_no_resurrection;
          Alcotest.test_case "claim revert" `Quick test_dbb_snapshot_claim_revert
        ] );
      ( "config", [ Alcotest.test_case "widths" `Quick test_config ] );
      ( "timing",
        [ Alcotest.test_case "dependent chain" `Quick
            test_dependent_chain_latency;
          Alcotest.test_case "width parallelism" `Quick test_width_parallelism;
          Alcotest.test_case "mispredict cost" `Quick
            test_mispredict_costs_cycles;
          Alcotest.test_case "max cycles" `Quick test_max_cycles_cap
        ] );
      ( "correctness",
        [ Alcotest.test_case "digest vs interpreter" `Quick
            test_digest_matches_interpreter;
          Alcotest.test_case "wrong-path stores undone" `Quick
            test_wrong_path_stores_undone;
          Alcotest.test_case "deep calls vs RAS" `Quick
            test_ret_depth_beyond_ras;
          Alcotest.test_case "decomposed branches" `Quick
            test_decomposed_machine_path;
          Alcotest.test_case "tiny DBB backpressure" `Quick
            test_tiny_dbb_backpressure
        ] );
      ( "stats",
        [ Alcotest.test_case "accounting" `Quick test_stats_accounting;
          Alcotest.test_case "site waits" `Quick test_site_wait_measured;
          Alcotest.test_case "sparse site ids" `Quick test_sparse_site_stats
        ] );
      ( "trace", [ Alcotest.test_case "rows" `Quick test_trace_rows ] )
    ]
