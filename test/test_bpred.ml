open Bv_bpred

(* Drive a predictor through an outcome sequence in program order (predict,
   repair history on a miss, train) and return its accuracy. *)
let accuracy ?(pc = 0x400) (p : Predictor.t) outcomes =
  let correct = ref 0 in
  Array.iter
    (fun taken ->
      let pred, meta = p.Predictor.predict ~pc ~outcome:taken in
      if pred = taken then incr correct
      else p.Predictor.recover meta ~taken;
      p.Predictor.update meta ~pc ~taken)
    outcomes;
  Float.of_int !correct /. Float.of_int (Array.length outcomes)

let periodic n pattern = Array.init n (fun i -> pattern.(i mod Array.length pattern))

let test_counters () =
  Alcotest.(check int) "saturates high" 3
    (Predictor.counter_update 3 ~taken:true ~max:3);
  Alcotest.(check int) "saturates low" 0
    (Predictor.counter_update 0 ~taken:false ~max:3);
  Alcotest.(check int) "increments" 2
    (Predictor.counter_update 1 ~taken:true ~max:3);
  Alcotest.(check bool) "taken above midpoint" true
    (Predictor.counter_taken 2 ~max:3);
  Alcotest.(check bool) "not taken below" false
    (Predictor.counter_taken 1 ~max:3)

let test_static () =
  let t = Predictor.always true and nt = Predictor.always false in
  Alcotest.(check (float 0.01)) "always-taken on all-taken" 1.0
    (accuracy t (Array.make 100 true));
  Alcotest.(check (float 0.01)) "always-nt on all-taken" 0.0
    (accuracy nt (Array.make 100 true))

let test_perfect () =
  let outcomes = Array.init 200 (fun i -> i * 7 mod 3 = 0) in
  Alcotest.(check (float 0.001)) "oracle" 1.0
    (accuracy Predictor.perfect outcomes)

let test_bimodal_learns_bias () =
  let p = Bimodal.create () in
  let outcomes = Array.init 1000 (fun i -> i mod 10 <> 0) in
  (* 90% taken *)
  let a = accuracy p outcomes in
  Alcotest.(check bool) (Printf.sprintf "bimodal ~bias (%.2f)" a) true
    (a > 0.85)

let test_gshare_learns_pattern () =
  let p = Gshare.create () in
  let outcomes = periodic 2000 [| true; false |] in
  let a = accuracy p outcomes in
  Alcotest.(check bool) (Printf.sprintf "gshare alternation (%.3f)" a) true
    (a > 0.97)

let test_bimodal_fails_pattern () =
  let p = Bimodal.create () in
  let outcomes = periodic 2000 [| true; false |] in
  let a = accuracy p outcomes in
  Alcotest.(check bool) "bimodal can't learn alternation" true (a < 0.7)

let test_tournament_beats_components () =
  (* biased stream favours bimodal; patterned favours gshare; the chooser
     should track both *)
  let patterned = periodic 4000 [| true; true; false; true |] in
  let a = accuracy (Tournament.create ()) patterned in
  Alcotest.(check bool) (Printf.sprintf "tournament pattern (%.3f)" a) true
    (a > 0.95)

let test_tage_long_history () =
  (* a pattern longer than gshare-small's 8-bit history *)
  let pattern = Array.init 24 (fun i -> i mod 8 < 3 || i = 20) in
  let stream = periodic 30000 pattern in
  let small = accuracy (Gshare.create ~table_bits:13 ~history_bits:8 ()) stream in
  let tage = accuracy (Tage.create ()) stream in
  Alcotest.(check bool)
    (Printf.sprintf "tage (%.3f) > short gshare (%.3f)" tage small)
    true
    (tage > small && tage > 0.95)

let test_isl_loop_predictor () =
  (* classic loop-exit shape: taken 40x then one not-taken; the loop
     predictor captures the trip count exactly *)
  let pattern = Array.init 41 (fun i -> i <> 40) in
  let stream = periodic 30000 pattern in
  let isl = accuracy (Isl_tage.create ()) stream in
  Alcotest.(check bool) (Printf.sprintf "isl-tage loop (%.4f)" isl) true
    (isl > 0.99)

let test_perceptron_correlation () =
  (* outcome = XOR of the last two outcomes: linearly separable over
     history bits, beyond a bimodal counter but easy for a perceptron *)
  let outcomes = Array.make 20000 false in
  let rng = Bv_workloads.Rng.create ~seed:8 in
  for i = 2 to 19999 do
    outcomes.(i) <-
      (if Bv_workloads.Rng.bernoulli rng 0.02 then Bv_workloads.Rng.bernoulli rng 0.5
       else outcomes.(i - 1) <> outcomes.(i - 2))
  done;
  let perc = accuracy (Perceptron.create ()) outcomes in
  let bim = accuracy (Bimodal.create ()) outcomes in
  Alcotest.(check bool)
    (Printf.sprintf "perceptron %.3f beats bimodal %.3f" perc bim)
    true
    (perc > 0.9 && perc > bim +. 0.2)

let test_perceptron_weight_saturation () =
  (* a constant stream must not overflow the weights and stays perfect *)
  let p = Perceptron.create ~weight_bits:4 () in
  let a = accuracy p (Array.make 50000 true) in
  Alcotest.(check bool) (Printf.sprintf "saturated weights ok (%.4f)" a) true
    (a > 0.99)

let test_history_recovery () =
  (* after recover, the history must equal the snapshot plus the corrected
     outcome: feeding the same stream with constant mispredict-repairs must
     keep behaviour deterministic *)
  let p1 = Gshare.create () and p2 = Gshare.create () in
  let stream = Array.init 500 (fun i -> i mod 3 = 0) in
  let a1 = accuracy p1 stream and a2 = accuracy p2 stream in
  Alcotest.(check (float 0.0001)) "deterministic" a1 a2

let test_storage_bits () =
  Alcotest.(check int) "tournament 24KB" (3 * 2 * 32768)
    (Tournament.create ()).Predictor.storage_bits;
  Alcotest.(check bool) "isl biggest" true
    ((Isl_tage.create ()).Predictor.storage_bits
    > (Tournament.create ()).Predictor.storage_bits)

let test_kind_roundtrip () =
  List.iter
    (fun k ->
      match Kind.of_name (Kind.name k) with
      | Some k' -> Alcotest.(check string) "roundtrip" (Kind.name k) (Kind.name k')
      | None -> Alcotest.failf "of_name failed for %s" (Kind.name k))
    Kind.all;
  Alcotest.(check bool) "unknown" true (Kind.of_name "nope" = None)

let test_btb () =
  let btb = Btb.create ~entries:16 () in
  Alcotest.(check (option int)) "cold miss" None (Btb.lookup btb ~pc:100);
  Btb.update btb ~pc:100 ~target:555;
  Alcotest.(check (option int)) "hit" (Some 555) (Btb.lookup btb ~pc:100);
  Alcotest.(check int) "stats" 1 (Btb.hits btb);
  Alcotest.(check int) "stats" 1 (Btb.misses btb)

let test_ras () =
  let ras = Ras.create ~entries:4 () in
  Alcotest.(check int) "empty" (-1) (Ras.pop ras);
  Ras.push ras 1;
  Ras.push ras 2;
  Alcotest.(check int) "lifo" 2 (Ras.pop ras);
  Alcotest.(check int) "lifo" 1 (Ras.pop ras);
  (* overflow wraps and loses the deepest entries *)
  List.iter (Ras.push ras) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "depth capped" 4 (Ras.depth ras);
  Alcotest.(check int) "newest wins" 5 (Ras.pop ras);
  let snap = Ras.snapshot ras in
  ignore (Ras.pop ras);
  Ras.restore ras ~from:snap;
  Alcotest.(check int) "restored" 4 (Ras.pop ras)

(* properties *)
let stream_gen =
  QCheck2.Gen.(array_size (int_range 50 400) bool)

let prop_no_crash kind =
  QCheck2.Test.make
    ~name:(Printf.sprintf "%s total on random streams" (Kind.name kind))
    ~count:30 stream_gen
    (fun outcomes ->
      let a = accuracy (Kind.create kind) outcomes in
      a >= 0.0 && a <= 1.0)

let prop_bimodal_tracks_bias =
  QCheck2.Test.make ~name:"bimodal accuracy >= bias - slack (iid streams)"
    ~count:30
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 100))
    (fun (seed, pct) ->
      let rng = Bv_workloads.Rng.create ~seed in
      let outcomes =
        Array.init 2000 (fun _ ->
            Bv_workloads.Rng.bernoulli rng (Float.of_int pct /. 100.0))
      in
      let bias =
        let t = Array.fold_left (fun a b -> a + Bool.to_int b) 0 outcomes in
        let r = Float.of_int t /. 2000.0 in
        Float.max r (1.0 -. r)
      in
      accuracy (Bimodal.create ()) outcomes >= bias -. 0.1)

let () =
  Alcotest.run "bv_bpred"
    [ ( "primitives",
        [ Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "static" `Quick test_static;
          Alcotest.test_case "perfect" `Quick test_perfect
        ] );
      ( "learning",
        [ Alcotest.test_case "bimodal bias" `Quick test_bimodal_learns_bias;
          Alcotest.test_case "gshare pattern" `Quick test_gshare_learns_pattern;
          Alcotest.test_case "bimodal no pattern" `Quick
            test_bimodal_fails_pattern;
          Alcotest.test_case "tournament" `Quick
            test_tournament_beats_components;
          Alcotest.test_case "tage long history" `Slow test_tage_long_history;
          Alcotest.test_case "isl-tage loop" `Slow test_isl_loop_predictor;
          Alcotest.test_case "history recovery" `Quick test_history_recovery;
          Alcotest.test_case "perceptron correlation" `Slow
            test_perceptron_correlation;
          Alcotest.test_case "perceptron saturation" `Slow
            test_perceptron_weight_saturation
        ] );
      ( "metadata",
        [ Alcotest.test_case "storage bits" `Quick test_storage_bits;
          Alcotest.test_case "kind names" `Quick test_kind_roundtrip
        ] );
      ( "btb/ras",
        [ Alcotest.test_case "btb" `Quick test_btb;
          Alcotest.test_case "ras" `Quick test_ras
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          (prop_bimodal_tracks_bias
          :: List.map prop_no_crash
               Kind.[ Bimodal; Gshare; Tournament; Perceptron; Tage; Isl_tage ]) )
    ]
