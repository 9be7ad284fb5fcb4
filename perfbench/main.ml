(* The repository benchmark. One process, one unit at a time (closed
   loop, harness jobs 1). Usage, from the repository root:

     perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   Workloads: sim_detailed, sweep_cold (see METRICS.md). With
   --trace 0 it sets the workload up several times, then repeats passes
   over the workload's units for S seconds and prints the end-to-end
   metrics. With --trace 1 it runs the traced layer probe (Probe), which
   is the same for every workload, and prints every per-layer metric.
   The last line of stdout is always one JSON object: correct,
   attempted, failed, metrics. *)

open Report
open Workloads

(* ---- the untraced run ------------------------------------------------- *)

(* Set-up runs at least [setup_reps] times and until the set-ups total
   [setup_seconds], so a short set-up's median rests on more samples. *)
let setup_reps = 5
let setup_seconds = 5.0

(* Repeat passes for [seconds], never starting one that the median pass
   so far says would overrun; at least one pass. *)
let measure ~seconds (r : ready) =
  let start = now () in
  let rec go acc =
    let p = r.run () in
    let acc = p :: acc in
    if
      now () -. start +. median (List.map (fun p -> p.Inputs.wall) acc)
      <= seconds
    then go acc
    else List.rev acc
  in
  go []

let run_untraced ~name ~setup ~seed ~seconds =
  let setups = ref [] and ready = ref None in
  while
    List.length !setups < setup_reps
    || Gauge.sum (fun p -> p.Gauge.raw_s) !setups < setup_seconds
  do
    Gc.full_major ();
    let r, p = Gauge.piece (Gauge.start ()) "setup" (fun () -> setup seed) in
    setups := p :: !setups;
    ready := Some r
  done;
  let r = Option.get !ready in
  Gc.full_major ();
  let passes = measure ~seconds r in
  (* Times are contention-adjusted by the gauge (see Gauge): the host's
     busy phases would otherwise decide them. The raw figures are printed
     alongside. *)
  let pieces p = p.Inputs.units @ p.Inputs.others in
  let pass_s f = List.map (fun p -> Gauge.sum f (pieces p)) passes in
  let unit_s f =
    List.concat_map (fun p -> List.map f p.Inputs.units) passes
  in
  let adj p = p.Gauge.adj_s and raw p = p.Gauge.raw_s in
  let wall = median (pass_s adj) in
  let runs = unit_s adj and raw_runs = unit_s raw in
  (* the median over units of each unit's median run: over all runs, the
     median of a few units of different sizes falls in the gap between
     two of them and jumps across it from run to run *)
  let names =
    List.map (fun p -> p.Gauge.name) (List.hd passes).Inputs.units
  in
  let unit_p50 f =
    let runs_of name =
      List.concat_map
        (fun p ->
          List.filter_map
            (fun u -> if u.Gauge.name = name then Some (f u) else None)
            p.Inputs.units)
        passes
    in
    median (List.map (fun name -> median (runs_of name)) names)
  in
  let n = Float.of_int (List.length passes) in
  let instrs = List.fold_left (fun a p -> a + p.Inputs.instrs) 0 passes in
  let words = List.fold_left (fun a p -> a +. p.Inputs.words) 0.0 passes in
  let tail_s, tail_pct = tail runs and raw_tail_s, _ = tail raw_runs in
  let heap = (Gc.quick_stat ()).Gc.top_heap_words in
  let n_runs = List.length runs in
  let speed = median (pass_s raw) /. wall in
  Printf.printf "workload %s: %s; %d passes, %d unit runs; pass walls %s s\n"
    name r.input (List.length passes) n_runs
    (String.concat " "
       (List.map (fun p -> Printf.sprintf "%.3f" p.Inputs.wall) passes));
  [ metric "setup_s" "s" "host, adjusted"
      ~note:(Printf.sprintf "median of %d set-ups" (List.length !setups))
      (Some (median (List.map adj !setups)));
    metric "wall_s" "s" "host, adjusted"
      ~note:(Printf.sprintf "median of %d passes" (List.length passes))
      (Some wall);
    metric "sim_mips" "Minstr/s" "host, adjusted"
      ~note:"a pass's instructions / wall_s"
      (Some (Float.of_int instrs /. n /. wall /. 1e6));
    metric "unit_s_p50" "s" "host, adjusted"
      ~note:
        (Printf.sprintf "median of %d units' median runs"
           (List.length names))
      (Some (unit_p50 adj));
    metric "unit_s_tail" "s" "host, adjusted"
      ~note:(Printf.sprintf "p%.1f of %d unit runs" tail_pct n_runs)
      (Some tail_s);
    metric "raw_setup_s" "s" "host" ~note:"unadjusted"
      (Some (median (List.map raw !setups)));
    metric "raw_wall_s" "s" "host"
      ~note:
        (Printf.sprintf "median pass, unadjusted: %.2fx the adjusted" speed)
      (Some (median (pass_s raw)));
    metric "raw_unit_s_p50" "s" "host" ~note:"unadjusted"
      (Some (unit_p50 raw));
    metric "raw_unit_s_tail" "s" "host" ~note:"unadjusted" (Some raw_tail_s);
    metric "alloc_words_per_instr" "words" "host, deterministic"
      (Some (words /. Float.of_int (max 1 instrs)));
    metric "heap_peak_mb" "MB" "host"
      (Some (Float.of_int (heap * (Sys.word_size / 8)) /. 1e6));
    metric "store_mb" "MB" "host, deterministic" (r.store_mb ());
    metric "cycle_err_pct" "%" "simulated"
      ~note:"sim_sampled only, which the traced run covers" None;
    metric "failed_frac" "ratio" "-"
      ~note:(Printf.sprintf "%d attempted" !Inputs.attempted)
      (Some
         (Float.of_int !Inputs.failed
         /. Float.of_int (max 1 !Inputs.attempted)))
  ]

(* ---- main ------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 in
  let usage =
    "perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: "
    ^ String.concat ", " (List.map fst workloads)
  in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ( "--seed",
        Arg.Set_int seed,
        "N input seed >= 0 (0: the repository's own inputs)" );
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced metrics or traced probe")
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let setup =
    match List.assoc_opt !workload workloads with
    | Some s when (!trace = 0 || !trace = 1) && !seed >= 0 -> s
    | _ ->
      prerr_endline usage;
      exit 2
  in
  let found = Inputs.pin_env () in
  Printf.printf "perfbench %s seed %d seconds %g trace %d\nenv:" !workload
    !seed !seconds !trace;
  List.iter
    (fun (k, was) ->
      Printf.printf " %s=%S (was %s)" k (Sys.getenv k)
        (match was with Some v -> Printf.sprintf "%S" v | None -> "unset"))
    found;
  print_newline ();
  Inputs.rm_rf Inputs.work_root;
  at_exit (fun () -> Inputs.rm_rf Inputs.work_root);
  if !trace = 0 then begin
    let metrics =
      run_untraced ~name:!workload ~setup ~seed:!seed ~seconds:!seconds
    in
    print_table metrics;
    print_result (List.filter (fun m -> List.mem m.m_name reported) metrics)
  end
  else begin
    let metrics = Probe.run ~workload:!workload ~seed:!seed in
    print_table metrics;
    print_result metrics
  end
