(* Hot-path data structures in isolation: the monomorphic handle Ring,
   the Release occupancy calendars, the pre-decoded static table, the
   struct-of-arrays in-flight pool and the closure-free squash and
   compaction loops over it — everything the per-cycle loop leans on for
   its allocation-free / O(1) claims — plus an end-to-end bound on the
   words the cycle loop allocates per simulated instruction. *)

open Bv_pipeline
open Machine_state

(* ------------------------------------------------------------------ ring *)

let test_ring_fifo () =
  let r = Ring.create 4 in
  Alcotest.(check int) "empty" 0 (Ring.length r);
  for k = 0 to 9 do
    Ring.push r k
  done;
  (* pushed past the initial capacity: the backing array grew *)
  Alcotest.(check int) "length" 10 (Ring.length r);
  Alcotest.(check int) "front" 0 (Ring.front r);
  Alcotest.(check int) "get 7" 7 (Ring.get r 7);
  Alcotest.(check int) "pop" 0 (Ring.pop r);
  Alcotest.(check int) "pop" 1 (Ring.pop r);
  Ring.push r 10;
  Ring.push r 11;
  (* head has rotated; order must survive wraparound *)
  let xs = ref [] in
  Ring.iter r (fun x -> xs := x :: !xs);
  Alcotest.(check (list int))
    "fifo order across wrap"
    [ 2; 3; 4; 5; 6; 7; 8; 9; 10; 11 ]
    (List.rev !xs)

let test_ring_limit () =
  let r = Ring.create ~limit:3 8 in
  Alcotest.(check int) "logical capacity" 3 (Ring.capacity r);
  Ring.push r 1;
  Ring.push r 2;
  Alcotest.(check bool) "not full" false (Ring.is_full r);
  Ring.push r 3;
  Alcotest.(check bool) "full at limit" true (Ring.is_full r);
  ignore (Ring.pop r);
  Alcotest.(check bool) "pop reopens" false (Ring.is_full r)

(* The closure-free compaction idiom the backend uses on the pending
   deque: [get] each entry, [set] the kept ones down, [drop_tail] the
   rest — order preserved across a rotated head. *)
let test_ring_set_compaction () =
  let r = Ring.create 4 in
  (* rotate the head first so compaction must handle wraparound *)
  List.iter (Ring.push r) [ 99; 99; 99 ];
  for _ = 1 to 3 do
    ignore (Ring.pop r)
  done;
  List.iter (Ring.push r) [ 1; 2; 3; 4; 5; 6 ];
  let w = ref 0 in
  for k = 0 to Ring.length r - 1 do
    let x = Ring.get r k in
    if x mod 2 = 0 then begin
      Ring.set r !w x;
      incr w
    end
  done;
  Ring.drop_tail r (Ring.length r - !w);
  let xs = ref [] in
  Ring.iter r (fun x -> xs := x :: !xs);
  Alcotest.(check (list int)) "kept, order preserved" [ 2; 4; 6 ]
    (List.rev !xs);
  Ring.drop_tail r 1;
  Alcotest.(check int) "drop_tail" 2 (Ring.length r)

(* --------------------------------------------------------------- release *)

let test_release_occupancy () =
  let c = Release.create ~horizon:64 in
  Alcotest.(check int) "empty" 0 (Release.occupancy c);
  Release.schedule c ~at:5;
  Release.schedule c ~at:5;
  Release.schedule c ~at:9;
  Alcotest.(check int) "three scheduled" 3 (Release.occupancy c);
  Release.drain c ~now:4;
  Alcotest.(check int) "nothing released before 5" 3 (Release.occupancy c);
  Release.drain c ~now:5;
  Alcotest.(check int) "both at-5 entries released" 1 (Release.occupancy c);
  (* drain is idempotent per cycle *)
  Release.drain c ~now:5;
  Alcotest.(check int) "re-drain is a no-op" 1 (Release.occupancy c);
  Release.drain c ~now:9;
  Alcotest.(check int) "drained dry" 0 (Release.occupancy c);
  (* the calendar is a ring: slots must be reusable past the horizon *)
  Release.schedule c ~at:80;
  Release.drain c ~now:79;
  Alcotest.(check int) "wrapped slot pending" 1 (Release.occupancy c);
  Release.drain c ~now:80;
  Alcotest.(check int) "wrapped slot released" 0 (Release.occupancy c);
  (* an empty calendar drains in O(1) however far [now] jumps (a skipped
     stall); scheduling near the new cursor must still count exactly *)
  Release.drain c ~now:10_000;
  Alcotest.(check int) "empty after a far drain" 0 (Release.occupancy c);
  Release.schedule c ~at:10_001;
  Release.schedule c ~at:10_001;
  Release.schedule c ~at:10_064;
  Alcotest.(check int) "scheduled past the jump" 3 (Release.occupancy c);
  Release.drain c ~now:10_000;
  Alcotest.(check int) "nothing released at the cursor" 3
    (Release.occupancy c);
  Release.drain c ~now:10_001;
  Alcotest.(check int) "first slot released" 1 (Release.occupancy c);
  Release.drain c ~now:10_063;
  Alcotest.(check int) "last slot still pending" 1 (Release.occupancy c);
  Release.drain c ~now:10_064;
  Alcotest.(check int) "drained dry again" 0 (Release.occupancy c)

(* ---------------------------------------------------------- static table *)

let static_image =
  lazy
    (let spec =
       Bv_workloads.Spec.make ~name:"hotpath" ~suite:Bv_workloads.Spec.Int_2006
         ~seed:3
         ~branch_classes:
           [ Bv_workloads.Spec.cls ~count:2 ~taken_rate:0.5
               ~predictability:0.8 ()
           ]
         ~inner_n:8 ~reps:1 ()
     in
     Bv_ir.Layout.program (Bv_workloads.Gen.generate ~input:1 spec))

let fresh_state () =
  Machine_state.create ~config:Config.four_wide (Lazy.force static_image)

(* The pre-decoded table must agree with the instruction-level decode
   helpers it replaced, for every pc in the image. *)
let test_static_table_agrees () =
  let st = fresh_state () in
  let fu_idx fu =
    match fu with
    | Bv_isa.Instr.Fu_int -> fu_int
    | Bv_isa.Instr.Fu_fp -> fu_fp
    | Bv_isa.Instr.Fu_mem -> fu_mem
    | Bv_isa.Instr.Fu_branch -> fu_branch
    | Bv_isa.Instr.Fu_none -> fu_none
  in
  Array.iteri
    (fun pc instr ->
      let si = st.static.(pc) in
      Alcotest.(check int)
        (Printf.sprintf "fu class @%d" pc)
        (fu_idx (Bv_isa.Instr.fu_class instr))
        si.s_fu;
      let dst =
        match Bv_isa.Instr.defs instr with
        | r :: _ -> Bv_isa.Reg.index r
        | [] -> -1
      in
      Alcotest.(check int) (Printf.sprintf "dst @%d" pc) dst si.s_dst;
      (* the fixed operand slots, padded with the always-ready spare *)
      let uses = List.map Bv_isa.Reg.index (Bv_isa.Instr.uses instr) in
      Alcotest.(check (list int))
        (Printf.sprintf "uses @%d" pc)
        (uses @ List.init (3 - List.length uses) (fun _ -> no_use))
        [ si.s_u0; si.s_u1; si.s_u2 ];
      let mem_kind =
        match instr with
        | Bv_isa.Instr.Load _ -> 1
        | Bv_isa.Instr.Store _ -> 2
        | _ -> 0
      in
      Alcotest.(check int) (Printf.sprintf "mem kind @%d" pc) mem_kind
        si.s_mem_kind;
      Alcotest.(check bool)
        (Printf.sprintf "halt @%d" pc)
        (instr = Bv_isa.Instr.Halt)
        si.s_is_halt)
    st.code

(* ----------------------------------------------------------- handle pool *)

let test_pool_recycle () =
  let st = fresh_state () in
  let h0 = alloc_inflight st in
  let h1 = alloc_inflight st in
  Alcotest.(check bool) "distinct rows" true (h0 <> h1);
  st.c_kind.(h0) <- ck_branch;
  st.c_site.(h0) <- 7;
  st.c_meta.(h0) <- [| 42 |];
  recycle_inflight st h0;
  (* the freed row comes back first (LIFO), with its control columns
     cleared so the next occupant starts from a non-control row *)
  let h2 = alloc_inflight st in
  Alcotest.(check int) "freed row reused" h0 h2;
  Alcotest.(check int) "kind cleared" ck_none st.c_kind.(h2);
  Alcotest.(check int) "site cleared" (-1) st.c_site.(h2);
  Alcotest.(check bool) "meta cleared" true (st.c_meta.(h2) == no_ctrl_meta)

let test_pool_grows () =
  let st = fresh_state () in
  (* claim more rows than the initial pool size; all must be distinct *)
  let n = 200 in
  let hs = Array.init n (fun _ -> alloc_inflight st) in
  let sorted = Array.copy hs in
  Array.sort compare sorted;
  let distinct = ref true in
  for k = 1 to n - 1 do
    if sorted.(k) = sorted.(k - 1) then distinct := false
  done;
  Alcotest.(check bool) "all handles distinct" true !distinct;
  Array.iter (recycle_inflight st) hs;
  (* every row recycled: the next [n] allocations reuse them *)
  let reused = Array.init n (fun _ -> alloc_inflight st) in
  Array.sort compare reused;
  Alcotest.(check bool) "free list hands rows back" true (reused = sorted)

(* ------------------------------------------------ squash and compaction *)

(* A plain (non-control, non-halt) row labelled by [seq], for driving the
   queues directly. *)
let plain_row st ~seq =
  let h = alloc_inflight st in
  st.i_seq.(h) <- seq;
  st.i_pc.(h) <- 0;
  st.i_fetch_cycle.(h) <- 0;
  st.i_addr.(h) <- 0;
  st.i_complete_cycle.(h) <- max_int;
  st.i_prefetch.(h) <- -1;
  h

let seqs_of st ring =
  let xs = ref [] in
  Ring.iter ring (fun h -> xs := st.i_seq.(h) :: !xs);
  List.rev !xs

(* The flush cuts the fetch buffer's wrong-path tail (seq > [from_seq])
   in place: squashed in FIFO order, and only the tail — an interior
   older entry shields everything ahead of it. *)
let test_flush_fetch_tail () =
  let squashed = ref [] in
  let st =
    Machine_state.create ~config:Config.four_wide
      ~on_event:(function
        | Squashed { seq; _ } -> squashed := seq :: !squashed
        | _ -> ())
      (Lazy.force static_image)
  in
  let owner = plain_row st ~seq:0 in
  st.c_kind.(owner) <- ck_branch;
  Spec_state.checkpoint_into st owner;
  let flush_with seqs =
    while Ring.length st.fbuf > 0 do
      recycle_inflight st (Ring.pop st.fbuf)
    done;
    List.iter (fun seq -> Ring.push st.fbuf (plain_row st ~seq)) seqs;
    squashed := [];
    Spec_state.flush st ~from_seq:10 ~checkpoint:st.c_ckpt.(owner) ~new_pc:0
  in
  flush_with [ 1; 2; 3; 14; 15 ];
  Alcotest.(check (list int)) "removed in fifo order" [ 14; 15 ]
    (List.rev !squashed);
  Alcotest.(check (list int)) "survivors" [ 1; 2; 3 ] (seqs_of st st.fbuf);
  Alcotest.(check int) "squashed_fetched" 2 st.stats.Stats.squashed_fetched;
  flush_with [ 14; 1; 15 ];
  Alcotest.(check int) "interior entry shields the head" 2
    (Ring.length st.fbuf)

(* Completion drops the finished rows from the pending deque in place,
   keeping the rest in seq order across a rotated head. *)
let test_completion_compaction () =
  let st = fresh_state () in
  Alcotest.(check bool) "pc 0 is not a halt" false st.static.(0).s_is_halt;
  for _ = 1 to 3 do
    Ring.push st.pending (plain_row st ~seq:0);
    recycle_inflight st (Ring.pop st.pending)
  done;
  st.now <- 10;
  List.iter
    (fun seq ->
      let h = plain_row st ~seq in
      st.i_complete_cycle.(h) <- (if seq mod 2 = 0 then 20 else 10);
      Ring.push st.pending h)
    [ 1; 2; 3; 4; 5; 6 ];
  st.next_complete <- 0;
  let free0 = st.free_len in
  Backend.process_completions st;
  Alcotest.(check (list int)) "incomplete kept, order preserved" [ 2; 4; 6 ]
    (seqs_of st st.pending);
  Alcotest.(check int) "completed rows recycled" (free0 + 3) st.free_len;
  Alcotest.(check int) "next completion" 20 st.next_complete

(* -------------------------------------------------------- pool invariant *)

(* Between cycles every pool row ever claimed is in exactly one of the
   fetch buffer, the pending deque and the free list: a row in none has
   leaked, a row in two would be handed out twice. *)
let check_pool st ~what =
  let marks = Array.make st.pool_next 0 in
  let mark where h =
    if h < 0 || h >= st.pool_next then
      Alcotest.failf "%s: %s holds unclaimed row %d" what where h;
    marks.(h) <- marks.(h) + 1
  in
  Ring.iter st.fbuf (mark "fbuf");
  Ring.iter st.pending (mark "pending");
  for k = 0 to st.free_len - 1 do
    mark "free list" st.free_pool.(k)
  done;
  Array.iteri
    (fun h n ->
      if n <> 1 then
        Alcotest.failf
          "%s, cycle %d: row %d (seq %d) is in %d of fbuf / pending / free \
           list"
          what st.now h st.i_seq.(h) n)
    marks

(* [Machine.run]'s loop, one [Machine.step] at a time, with the pool
   checked after each; the stepped run must end where [Machine.run]
   does. Returns the squashed issued rows, so a corpus can show it did
   exercise flushes that cut the pending deque. *)
let run_checked ~what ~config image =
  let st = Machine_state.create ~config image in
  if Machine.compile_enabled () then Compile.attach st;
  let max_cycles = 20_000_000 in
  while (not st.finished) && st.now < max_cycles do
    Machine.step st ~max_cycles ~on_cycle:None;
    check_pool st ~what
  done;
  let r = Machine.run ~config image in
  Alcotest.(check bool) (what ^ ": finished") true st.finished;
  Alcotest.(check int)
    (what ^ ": cycles as Machine.run")
    r.Machine.stats.Stats.cycles st.stats.Stats.cycles;
  st.stats.Stats.squashed_issued

let test_pool_invariant_goldens () =
  List.iter
    (fun (what, config, image) ->
      let squashed = run_checked ~what ~config (Lazy.force image) in
      if squashed = 0 then Alcotest.failf "%s: no pending row squashed" what)
    Golden_cases.cases

let test_pool_invariant_fuzz () =
  let squashed = ref 0 in
  for seed = 0 to 24 do
    let image =
      Bv_ir.Layout.program (Bv_workloads.Fuzzgen.generate ~seed)
    in
    List.iter
      (fun (name, config) ->
        squashed :=
          !squashed
          + run_checked
              ~what:(Printf.sprintf "fuzz seed %d, %s" seed name)
              ~config image)
      [ ("w4", Config.four_wide); ("w8 runahead", Golden_cases.runahead_w8) ]
  done;
  Alcotest.(check bool) "the corpus squashes pending rows" true (!squashed > 0)

(* The single-pass flush hazard: a mispredicting branch completes in the
   same cycle as a younger wrong-path load that has also completed. The
   branch's flush cuts the pending deque right after it, so the load is
   never reached by the completion pass and must be recycled by the
   flush itself — or the row leaks. Older rows around the branch check
   that the pass keeps compacting correctly up to the cut. *)
let test_flush_same_cycle_completion () =
  let st = fresh_state () in
  let load_pc =
    let rec find pc =
      if st.static.(pc).s_mem_kind = 1 then pc else find (pc + 1)
    in
    find 0
  in
  st.now <- 10;
  let row ~seq ~complete =
    let h = plain_row st ~seq in
    st.i_complete_cycle.(h) <- complete;
    h
  in
  let older_done = row ~seq:0 ~complete:10 in
  let older_busy = row ~seq:1 ~complete:25 in
  let branch = row ~seq:2 ~complete:10 in
  st.c_kind.(branch) <- ck_branch;
  st.c_mispredict.(branch) <- 1;
  st.c_redirect.(branch) <- 0;
  st.c_dbb_slot.(branch) <- -1;
  Spec_state.checkpoint_into st branch;
  let load = row ~seq:3 ~complete:10 in
  st.i_pc.(load) <- load_pc;
  let younger_busy = row ~seq:4 ~complete:30 in
  List.iter (Ring.push st.pending)
    [ older_done; older_busy; branch; load; younger_busy ];
  Ring.push st.fbuf (plain_row st ~seq:5);
  st.next_complete <- 0;
  Backend.process_completions st;
  check_pool st ~what:"same-cycle flush";
  Alcotest.(check (list int)) "only the older in-flight row survives" [ 1 ]
    (seqs_of st st.pending);
  Alcotest.(check int) "fetch buffer squashed" 0 (Ring.length st.fbuf);
  Alcotest.(check int) "squashed_issued" 2 st.stats.Stats.squashed_issued;
  Alcotest.(check int) "branch mispredicts" 1
    st.stats.Stats.branch_mispredicts;
  Alcotest.(check int) "no live checkpoint" 0 st.live_checkpoints;
  Alcotest.(check int) "next completion" 25 st.next_complete

(* ------------------------------------------------- allocation regression *)

(* The steady-state cycle loop allocates (almost) nothing per simulated
   instruction. Running one image at repetitions N and 2N cancels the
   per-run set-up (pool, tables, caches), so the extra minor words per
   extra retired instruction is the loop's own cost. What remains is the
   predictor interface's [bool * meta] result and a call's stack cons;
   a closure or an option creeping back onto a per-instruction path
   costs several words per instruction and trips the bound. *)
let alloc_image reps =
  let spec = Option.get (Bv_workloads.Suites.find "astar") in
  let b = Bv_harness.Runner.prepare { spec with Bv_workloads.Spec.reps } in
  Bv_harness.Runner.experimental_program b ~input:1

let words_per_instr ~config ~small ~large =
  let run img =
    let w0 = Gc.minor_words () in
    let r = Machine.run ~config img in
    let w1 = Gc.minor_words () in
    Alcotest.(check bool) "run finished" true r.Machine.finished;
    (w1 -. w0, Stats.retired r.Machine.stats)
  in
  let w_small, n_small = run small in
  let w_large, n_large = run large in
  Alcotest.(check bool) "larger run retires more" true
    (n_large > n_small + 10_000);
  (w_large -. w_small) /. Float.of_int (n_large - n_small)

let test_alloc_per_instr () =
  let small = alloc_image 2 and large = alloc_image 4 in
  List.iter
    (fun (predictor, width, bound) ->
      let config = Config.make ~predictor ~width () in
      let w = words_per_instr ~config ~small ~large in
      if w > bound then
        Alcotest.failf "%s width %d: %.3f words per instruction > %.1f"
          (Bv_bpred.Kind.name predictor) width w bound)
    [ (Bv_bpred.Kind.Tournament, 4, 1.0); (Bv_bpred.Kind.Tage, 8, 1.5) ]

let () =
  Alcotest.run "bv_hotpath"
    [ ( "ring",
        [ Alcotest.test_case "fifo across growth and wrap" `Quick
            test_ring_fifo;
          Alcotest.test_case "limit vs backing" `Quick test_ring_limit;
          Alcotest.test_case "set and drop_tail compaction" `Quick
            test_ring_set_compaction
        ] );
      ( "release",
        [ Alcotest.test_case "occupancy calendar" `Quick
            test_release_occupancy
        ] );
      ( "static table",
        [ Alcotest.test_case "agrees with instruction decode" `Quick
            test_static_table_agrees
        ] );
      ( "pool",
        [ Alcotest.test_case "recycle clears control columns" `Quick
            test_pool_recycle;
          Alcotest.test_case "growth and reuse" `Quick test_pool_grows
        ] );
      ( "squash",
        [ Alcotest.test_case "flush cuts the fetch-buffer tail" `Quick
            test_flush_fetch_tail;
          Alcotest.test_case "completion compaction" `Quick
            test_completion_compaction;
          Alcotest.test_case "flush in the completion pass" `Quick
            test_flush_same_cycle_completion
        ] );
      ( "pool invariant",
        [ Alcotest.test_case "golden configs" `Quick
            test_pool_invariant_goldens;
          Alcotest.test_case "fuzz corpus" `Quick test_pool_invariant_fuzz
        ] );
      ( "allocation",
        [ Alcotest.test_case "words per instruction" `Quick
            test_alloc_per_instr
        ] )
    ]
