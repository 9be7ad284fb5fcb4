(* The traced run: per-layer metrics. Whatever the workload, it runs one
   untraced and one traced pass of every workload, so every layer is
   measured and each workload's tracing overhead is known:

   - the simulator images are built under stage spans; the sim_detailed
     pass (Machine.run spans) gives the core counters, then one
     accounted run per image, the compiled-vs-interpreted A/B and a
     predictor replay of each image's committed branch stream;
   - the sim_sampled pass gives the fast-forward and SMARTS figures;
   - an untraced cold sweep is replayed stage by stage, untraced and
     under spans, each pair checked against it; the warm pass over its
     store traces the persist reads.

   Spans are kept in memory and written as one Chrome trace at the end. *)

open Bv_pipeline
open Report

let now = Unix.gettimeofday
let fsum f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs
let isum f xs = List.fold_left (fun a x -> a + f x) 0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b
let iratio a b = ratio (Float.of_int a) (Float.of_int b)
let simulated name unit_ v = metric name unit_ "simulated" (Some v)
let count name v = simulated name "count" (Float.of_int v)

(* Run [f] untraced, then traced in section [name]; the traced result
   and both walls. *)
let twice name f =
  Span.enabled := false;
  let t0 = now () in
  ignore (f ());
  let untraced = now () -. t0 in
  Span.enabled := true;
  let t0 = now () in
  let r = Span.in_section name f in
  Span.enabled := false;
  (r, untraced, now () -. t0)

let checked_runs prefix run images =
  List.filter_map
    (fun (img : Inputs.image) ->
      Inputs.check (prefix ^ "/" ^ img.Inputs.label) (fun () -> (img, run img)))
    images

(* ---- simulator core --------------------------------------------------- *)

let stats_of runs = List.map (fun (_, r) -> r.Machine.stats) runs

let core_metrics runs spans =
  let stats = stats_of runs in
  let sum f = isum f stats in
  let retired = sum Stats.retired and cycles = sum (fun s -> s.Stats.cycles) in
  let per_retired f = iratio (sum f) retired in
  let pki f = 1000.0 *. per_retired f in
  let stall_frac name f = simulated name "ratio" (iratio (sum f) cycles) in
  let machine = Span.aggregate spans "machine" in
  let miss name level =
    let s =
      List.map
        (fun (_, r) -> Bv_cache.Sa_cache.stats (level r.Machine.hierarchy))
        runs
    in
    simulated name "ratio"
      (iratio
         (isum (fun s -> s.Bv_cache.Sa_cache.misses) s)
         (isum (fun s -> s.Bv_cache.Sa_cache.accesses) s))
  in
  [ metric "machine.ns_per_cycle" "ns" "host"
      (Some (1e9 *. ratio machine.Span.self_s (Float.of_int cycles)));
    metric "machine.words_per_instr" "words" "host, deterministic"
      (Some (ratio machine.Span.self_words (Float.of_int retired)));
    simulated "frontend.fetched_per_retired" "ratio"
      (per_retired (fun s -> s.Stats.fetched));
    simulated "frontend.icache_misses_pki" "pki"
      (pki (fun s -> s.Stats.icache_misses));
    simulated "frontend.redirects_pki" "pki" (pki (fun s -> s.Stats.redirects));
    count "frontend.predicts_fetched" (sum (fun s -> s.Stats.predicts_fetched));
    simulated "scoreboard.issued_per_retired" "ratio"
      (per_retired (fun s -> s.Stats.issued));
    count "scoreboard.squashed_issued" (sum (fun s -> s.Stats.squashed_issued));
    stall_frac "scoreboard.head_stall_frac" (fun s ->
        s.Stats.head_stall_cycles);
    stall_frac "scoreboard.operand_stall_frac" (fun s ->
        s.Stats.operand_stall_cycles);
    stall_frac "scoreboard.fu_stall_frac" (fun s -> s.Stats.fu_stall_cycles);
    stall_frac "scoreboard.mem_struct_stall_frac" (fun s ->
        s.Stats.mem_struct_stall_cycles);
    count "scoreboard.runahead_prefetches"
      (sum (fun s -> s.Stats.runahead_prefetches));
    simulated "backend.mispredicts_pki" "pki"
      (pki (fun s -> Stats.mispredicts s + s.Stats.ret_mispredicts));
    count "spec_state.redirects" (sum (fun s -> s.Stats.redirects));
    simulated "dbb.avg_occupancy" "entries"
      (iratio
         (sum (fun s -> s.Stats.dbb_occupancy_sum))
         (sum (fun s -> s.Stats.dbb_samples)));
    simulated "dbb.max_occupancy" "entries"
      (Float.of_int
         (List.fold_left (fun a s -> max a s.Stats.dbb_max_occupancy) 0 stats));
    count "dbb.full_stalls" (sum (fun s -> s.Stats.dbb_full_stalls));
    count "bpred.lookups"
      (sum (fun s -> s.Stats.branch_execs + s.Stats.resolve_execs));
    simulated "bpred.mppki" "pki" (pki Stats.mispredicts);
    miss "cache.l1d_miss_ratio" Bv_cache.Hierarchy.l1d;
    miss "cache.l1i_miss_ratio" Bv_cache.Hierarchy.l1i;
    miss "cache.l2_miss_ratio" Bv_cache.Hierarchy.l2
  ]

let cycles_of runs label =
  match
    List.find_opt
      (fun ((img : Inputs.image), _) -> img.Inputs.label = label)
      runs
  with
  | Some (_, r) -> r.Machine.stats.Stats.cycles
  | None -> 0

let model_metrics runs =
  let stats = stats_of runs in
  let cycles = isum (fun s -> s.Stats.cycles) stats in
  let retired = isum Stats.retired stats in
  let plain = cycles_of runs "int_w4" + cycles_of runs "mem_runahead_w8" in
  let decomposed =
    cycles_of runs "int_decomposed_w4"
    + cycles_of runs "mem_decomposed_runahead_w8"
  in
  [ simulated "model.cycles" "cycles" (Float.of_int cycles);
    count "model.retired" retired;
    simulated "model.ipc" "ratio" (iratio retired cycles);
    simulated "model.speedup_pct" "%"
      (100.0 *. (iratio plain decomposed -. 1.0))
  ]

(* One accounted run per image: the CPI stack, which must not change the
   cycle count of the plain run. *)
let acct_metrics runs =
  let accounted =
    List.filter_map
      (fun ((img : Inputs.image), plain) ->
        Inputs.check ("acct/" ^ img.Inputs.label) (fun () ->
            let acct = Acct.create img.Inputs.image.Bv_ir.Layout.code in
            let r =
              Machine.run ~acct ~config:img.Inputs.config img.Inputs.image
            in
            Inputs.check_run img r;
            Inputs.expect "accounting changed the cycle count"
              (r.Machine.stats.Stats.cycles = plain.Machine.stats.Stats.cycles);
            (acct, Stats.retired r.Machine.stats)))
      runs
  in
  let retired = isum snd accounted in
  Array.to_list
    (Array.mapi
       (fun c name ->
         simulated
           ("acct." ^ name ^ "_cpi")
           "cpi"
           (iratio
              (isum (fun (a, _) -> a.Acct.components.(c)) accounted)
              retired))
       Acct.component_names)

(* Each image timed compiled and interpreted, interleaved, 4 rounds
   alternating which goes first; medians per image, summed. *)
let compile_metrics images =
  let times = Hashtbl.create 16 in
  let timed (img : Inputs.image) compile =
    ignore
      (Inputs.check
         (Printf.sprintf "compile/%s/%b" img.Inputs.label compile)
         (fun () ->
           let t0 = now () in
           let r =
             Machine.run ~compile ~config:img.Inputs.config img.Inputs.image
           in
           Hashtbl.add times (img.Inputs.label, compile) (now () -. t0);
           Inputs.check_run img r))
  in
  List.iter
    (fun first ->
      List.iter
        (fun img ->
          timed img first;
          timed img (not first))
        images)
    [ true; false; true; false ];
  let total compile =
    fsum
      (fun (img : Inputs.image) ->
        Workloads.median (Hashtbl.find_all times (img.Inputs.label, compile)))
      images
  in
  let compiled = total true and interp = total false in
  [ metric "compile.host_saved_pct" "%" "host"
      ~note:(Printf.sprintf "of %.3f s interpreted" interp)
      (Some (100.0 *. ratio (interp -. compiled) interp));
    metric "compile.interp_s" "s" "host" (Some interp);
    metric "compile.compiled_s" "s" "host" (Some compiled)
  ]

(* The committed branch/resolve stream of each image, captured through
   the interpreter's hooks and replayed through its configured
   predictor's predict/update. *)
let bpred_metrics images =
  let replayed = ref 0 and seconds = ref 0.0 in
  List.iter
    (fun (img : Inputs.image) ->
      let stream = ref [] in
      let push ~pc ~taken = stream := (pc, taken) :: !stream in
      let hooks =
        { Bv_exec.Interp.on_branch = (fun ~id:_ ~pc ~taken -> push ~pc ~taken);
          on_resolve = (fun ~id:_ ~pc ~mispredicted:_ ~taken -> push ~pc ~taken)
        }
      in
      ignore (Bv_exec.Interp.run ~hooks img.Inputs.image);
      let stream = Array.of_list (List.rev !stream) in
      let p = Bv_bpred.Kind.create img.Inputs.config.Config.predictor in
      let t0 = now () in
      Array.iter
        (fun (pc, taken) ->
          let _, meta = p.Bv_bpred.Predictor.predict ~pc ~outcome:taken in
          p.Bv_bpred.Predictor.update meta ~pc ~taken)
        stream;
      seconds := !seconds +. (now () -. t0);
      replayed := !replayed + Array.length stream)
    images;
  [ metric "bpred.replay_ns_per_branch" "ns" "host"
      ~note:(Printf.sprintf "%d branches" !replayed)
      (Some (1e9 *. ratio !seconds (Float.of_int !replayed)))
  ]

(* ---- sampling --------------------------------------------------------- *)

let sampled_metrics detailed sampled =
  let est = List.map (fun (_, s) -> s.Machine.sam_estimate) sampled in
  let total = isum (fun e -> e.Smarts.est_total_instrs) est in
  let measured = isum (fun e -> e.Smarts.est_detailed_instrs) est in
  let max_over f xs = List.fold_left (fun a x -> Float.max a (f x)) 0.0 xs in
  [ simulated "ffwd.instr_share" "ratio" (iratio (total - measured) total);
    count "smarts.windows"
      (isum (fun e -> List.length e.Smarts.est_windows) est);
    simulated "smarts.cpi_rel_err_pct" "%"
      (max_over (fun e -> e.Smarts.est_cpi.Smarts.rel_err_pct) est);
    simulated "smarts.cycle_err_pct" "%"
      (max_over
         (fun ((img : Inputs.image), s) ->
           let exact = Float.of_int (cycles_of detailed img.Inputs.label) in
           100.0
           *. Float.abs (s.Machine.sam_estimate.Smarts.est_cycles -. exact)
           /. exact)
         sampled)
  ]

(* ---- harness stages --------------------------------------------------- *)

let stages =
  [ "gen"; "schedule"; "layout"; "profile"; "select"; "transform"; "prove";
    "interp"; "machine"; "persist_write"; "persist_read" ]

let stage_metrics spans =
  List.concat_map
    (fun stage ->
      let a = Span.aggregate spans stage in
      [ metric (stage ^ ".calls") "count" "host, deterministic"
          (Some (Float.of_int a.Span.calls));
        metric (stage ^ ".self_s") "s" "host" (Some a.Span.self_s);
        metric (stage ^ ".alloc_mwords") "Mwords" "host, deterministic"
          (Some (a.Span.self_words /. 1e6))
      ])
    stages

(* Least-squares line of machine seconds against retired instructions:
   (intercept, slope). *)
let fit points =
  let n = Float.of_int (List.length points) in
  let mx = fsum (fun (_, r) -> Float.of_int r) points /. n in
  let my = fsum fst points /. n in
  let sxy =
    fsum (fun (t, r) -> (Float.of_int r -. mx) *. (t -. my)) points
  in
  let sxx = fsum (fun (_, r) -> (Float.of_int r -. mx) ** 2.0) points in
  let slope = ratio sxy sxx in
  (my -. (slope *. mx), slope)

(* ---- the run ---------------------------------------------------------- *)

(* The simulator images: core, accounting, compile A/B, predictor
   replay and sampling metrics, and the two sim workloads' overheads. *)
let sim_probe seed =
  Span.enabled := true;
  let images =
    Span.in_section "sim_setup" (fun () -> Inputs.sim_images seed)
  in
  let detailed, du, dt =
    twice "sim_detailed" (fun () ->
        checked_runs "sim_detailed"
          (fun (img : Inputs.image) ->
            let r = Inputs.machine ~config:img.Inputs.config img.Inputs.image in
            Inputs.check_run img r;
            r)
          images)
  in
  let core = core_metrics detailed (Span.section "sim_detailed") in
  let acct = acct_metrics detailed in
  let compile = compile_metrics images in
  let bpred = bpred_metrics images in
  let sampled, su, st =
    twice "sim_sampled" (fun () ->
        checked_runs "sim_sampled"
          (fun (img : Inputs.image) ->
            let s =
              Inputs.run_sampled ~config:img.Inputs.config img.Inputs.image
            in
            Inputs.check_run img s.Machine.sam_result;
            s)
          images)
  in
  ( core @ acct @ model_metrics detailed @ compile @ bpred
    @ sampled_metrics detailed sampled,
    [ ("sim_detailed", dt -. du); ("sim_sampled", st -. su) ] )

(* The sweep: an untraced cold pass, its replay untraced and traced,
   then an untraced and a traced warm pass over the cold pass's store. *)
let sweep_probe seed =
  let specs = Inputs.sweep_specs and inputs = Inputs.sweep_inputs seed in
  let store = Inputs.fresh_dir "probe-store" in
  let reference = Sweep.pass ~prove:true ~dir:store ~inputs specs in
  Gc.full_major ();
  let replay, ru, rt =
    twice "sweep_cold" (fun () ->
        let dir = Inputs.fresh_dir "probe-replay" in
        Fun.protect
          ~finally:(fun () -> Inputs.rm_rf dir)
          (fun () -> Sweep.replay ~dir ~inputs reference))
  in
  Gc.full_major ();
  let read = ref 0 in
  let warm, wu, wt =
    twice "sweep_warm" (fun () ->
        let r0 = Inputs.read_bytes () in
        let p = Sweep.pass ~prove:false ~dir:store ~inputs specs in
        read := Inputs.read_bytes () - r0;
        p)
  in
  Sweep.check_warm ~expected:reference warm;
  let written = Inputs.store_bytes store in
  Inputs.rm_rf store;
  let cold_spans = Span.section "sweep_cold" in
  let spanned = fsum (fun s -> s.Span.self_dur) cold_spans in
  let fixed, slope = fit replay.Sweep.fit in
  let c = warm.Sweep.dag in
  let open Bv_harness.Dag in
  ( stage_metrics (cold_spans @ Span.section "sweep_warm")
    @ [ metric "machine.fixed_ms_per_run" "ms" "host"
          ~note:
            (Printf.sprintf "fit over %d runs" (List.length replay.Sweep.fit))
          (Some (1e3 *. fixed));
        metric "machine.ns_per_instr" "ns" "host" (Some (1e9 *. slope));
        metric "dag.bytes_written" "bytes" "host, deterministic"
          ~note:"node payloads in the store after the cold pass"
          (Some (Float.of_int written));
        metric "dag.bytes_read" "bytes" "host, deterministic"
          ~note:"read(2) bytes over the traced warm pass"
          (Some (Float.of_int !read));
        metric "dag.hit_ratio" "ratio" "host, deterministic"
          (Some (iratio c.hits (c.hits + c.misses + c.stolen)));
        metric "trace.sweep_cold.wall_s" "s" "host" (Some replay.Sweep.r_wall);
        metric "trace.sweep_cold.unspanned_s" "s" "host"
          ~note:(Printf.sprintf "%.3f s in stage spans" spanned)
          (Some (replay.Sweep.r_wall -. spanned))
      ],
    [ ("sweep_cold", rt -. ru); ("sweep_warm", wt -. wu) ] )

let run ~workload ~seed =
  let sim, sim_overheads = sim_probe seed in
  Gc.full_major ();
  let sweep, sweep_overheads = sweep_probe seed in
  let overheads = sim_overheads @ sweep_overheads in
  Inputs.ensure_dir Inputs.out_root;
  let path =
    Filename.concat Inputs.out_root
      (Printf.sprintf "trace-%s-seed%d.json" workload seed)
  in
  Span.write_chrome_trace path;
  Printf.printf "chrome trace: %s (%d spans)\n" path
    (List.length !Span.finished);
  Printf.printf "tracing overhead on %s: %.3f s\n" workload
    (List.assoc workload overheads);
  sweep @ sim
  @ List.map
      (fun (w, o) -> metric ("trace." ^ w ^ ".overhead_s") "s" "host" (Some o))
      overheads
