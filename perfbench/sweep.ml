(* The suite sweep: a cold pass through [Sim] into an empty store, a warm
   pass over a populated one (traced run only), and the stage-by-stage
   replay of a cold pass. *)

open Bv_pipeline
open Bv_workloads
module Dag = Bv_harness.Dag
module Runner = Bv_harness.Runner
module Sim = Bv_harness.Sim

let unit_name (spec : Spec.t) ~input ~width =
  Printf.sprintf "%s/i%d/w%d" spec.Spec.name input width

let points ~inputs spec =
  List.concat_map
    (fun input ->
      List.map (fun width -> (spec, input, width)) Inputs.sweep_widths)
    inputs

let prove ~original transformed =
  let diags =
    Span.with_ "prove" (fun () ->
        Bv_analysis.Equiv.verify
          ~scratch:Vanguard.Transform.default_temp_pool
          ~exit_live:Gen.live_at_exit ~original transformed)
  in
  Inputs.expect "translation validation found a counterexample"
    (not (Bv_analysis.Diagnostic.has_errors diags))

type pass =
  { timing : Inputs.timing;
    outputs : (string * Digest.t) list;
        (** per node request, a digest of the returned value *)
    counts : (string * (int * int * int * int)) list;
        (** per pair: baseline cycles and retired, experimental cycles
            and retired *)
    scaled : (Spec.t * Spec.t) list;
        (** per prepared benchmark, its spec and the scaled spec the
            harness built it from *)
    dag : Dag.counters  (** the session's store hits and misses *)
  }

let digest v = Digest.string (Marshal.to_string v [])

(* One sweep over the store [dir]: per benchmark a fresh [Sim] session
   (jobs 1) requests the prepare node, with [prove] proves the
   transformed TRAIN program, then requests one paired-run node per
   (input, width). A session per benchmark keeps the live heap to one
   benchmark's results. Node requests sit in [persist_read] spans: only
   a warm pass, where every request is a store hit, is ever traced. The
   clock and the allocation counter stop while the results are
   digested. *)
let pass ~prove:proving ~dir ~inputs specs =
  let wall = ref 0.0 and words = ref 0.0 in
  let units = ref [] and others = ref [] and instrs = ref 0 in
  let outputs = ref [] and counts = ref [] and scaled = ref [] in
  let hits = ref 0 and misses = ref 0 and stolen = ref 0 in
  let node f = Span.with_ "persist_read" f in
  let g = Gauge.start () in
  List.iter
    (fun (spec : Spec.t) ->
      let a0 = Span.allocated () and t0 = Unix.gettimeofday () in
      let piece name f =
        let r, p = Gauge.piece g name f in
        others := p :: !others;
        r
      in
      let name = spec.Spec.name in
      let sim, bench =
        piece (name ^ "/prepare") (fun () ->
            let sim = Sim.create ~jobs:1 ~cache_dir:dir () in
            ( sim,
              Inputs.check (name ^ "/prepare") (fun () ->
                  node (fun () -> Sim.bench sim spec)) ))
      in
      (match bench with
      | Some b when proving ->
        piece (name ^ "/prove") (fun () ->
            ignore
              (Inputs.check (name ^ "/prove") (fun () ->
                   prove
                     ~original:(Gen.generate ~input:0 (Runner.spec b))
                     (Runner.transform b).Vanguard.Transform.program)))
      | _ -> ());
      let summaries =
        List.filter_map
          (fun (spec, input, width) ->
            let u = unit_name spec ~input ~width in
            let r, p =
              Gauge.piece g u (fun () ->
                  Inputs.check u (fun () ->
                      node (fun () -> Sim.summary sim spec ~input ~width)))
            in
            units := p :: !units;
            Option.map (fun s -> (u, s)) r)
          (points ~inputs spec)
      in
      wall := !wall +. (Unix.gettimeofday () -. t0);
      words := !words +. (Span.allocated () -. a0);
      let c = Sim.counters sim in
      hits := !hits + c.Dag.hits;
      misses := !misses + c.Dag.misses;
      stolen := !stolen + c.Dag.stolen;
      Option.iter
        (fun b ->
          scaled := (spec, Runner.spec b) :: !scaled;
          outputs := (name ^ "/prepare", digest (Runner.export b)) :: !outputs)
        bench;
      List.iter
        (fun (u, s) ->
          let c (st : Stats.t) = (st.Stats.cycles, Stats.retired st) in
          let bc, br = c s.Runner.sum_base and ec, er = c s.Runner.sum_exp in
          instrs := !instrs + br + er;
          outputs := (u, digest s) :: !outputs;
          counts := (u, (bc, br, ec, er)) :: !counts)
        summaries)
    specs;
  { timing =
      { Inputs.wall = !wall;
        units = List.rev !units;
        others = List.rev !others;
        instrs = !instrs;
        words = !words
      };
    outputs = List.rev !outputs;
    counts = List.rev !counts;
    scaled = List.rev !scaled;
    dag = { Dag.hits = !hits; misses = !misses; stolen = !stolen }
  }

(* A warm pass must return exactly what the pass that populated the store
   computed; a difference fails the unit after the timed section. *)
let check_warm ~expected (warm : pass) =
  List.iter
    (fun (name, d) ->
      if List.assoc_opt name expected.outputs <> Some d then begin
        incr Inputs.failed;
        Printf.printf
          "FAILED %s: warm result differs from the populating pass\n%!" name
      end)
    warm.outputs

(* ---- traced replay ---------------------------------------------------- *)

type replay =
  { r_wall : float;
    fit : (float * int) list  (** (machine seconds, retired) per run *)
  }

(* Replay a cold pass stage by stage through the layers' public
   functions, with a span around each call, persisting the same node
   kinds into the private store [dir]. Every pair must reproduce the
   cycles and retired counts of [reference], the untraced pass. Like the
   pass, it starts a fresh engine (in-process memo) per benchmark. The
   payloads mirror the harness's (the prepare artifact's fields as a
   tuple, the sim summary itself), so the bytes written match; nothing
   but the replay reads its store. [fit] reads the machine spans, so it
   holds only when spans are on. *)
let replay ~dir ~inputs (reference : pass) =
  let scale = Runner.scale () in
  let fit = ref [] in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun ((spec : Spec.t), scaled) ->
      let dag = Dag.create ~dir () in
      let train = Inputs.gen ~input:0 scaled in
      let train_image = Inputs.layout (Inputs.schedule train) in
      let profile = Inputs.profile train_image in
      let selection = Inputs.select ~profile train in
      let candidates = selection.Vanguard.Select.candidates in
      let result = Inputs.transform ~candidates train in
      let exp_static =
        Array.length
          (Inputs.layout result.Vanguard.Transform.program).Bv_ir.Layout.code
      in
      let pn =
        Dag.node ~kind:"prepare" ~label:spec.Spec.name
          ~inputs:(spec, "tournament", 0.05, (None : int option), scale)
          (fun () ->
            ( scaled,
              profile,
              selection,
              result,
              Array.length train_image.Bv_ir.Layout.code,
              exp_static ))
      in
      Span.with_ "persist_write" (fun () -> ignore (Dag.eval dag pn));
      ignore
        (Inputs.check (spec.Spec.name ^ "/prove/replay") (fun () ->
             prove
               ~original:(Inputs.gen ~input:0 scaled)
               result.Vanguard.Transform.program));
      List.iter
        (fun input ->
          let program = Inputs.gen ~input scaled in
          let base = Inputs.layout (Inputs.schedule program) in
          let exp =
            Inputs.layout
              (Inputs.transform ~candidates program).Vanguard.Transform.program
          in
          let dbase = Inputs.interp_digest base in
          let dexp = Inputs.interp_digest exp in
          List.iter
            (fun width ->
              let u = unit_name spec ~input ~width in
              ignore
                (Inputs.check (u ^ "/replay") (fun () ->
                     let config = Config.make ~width () in
                     let run image digest =
                       let r = Inputs.machine ~config image in
                       fit := (Span.last_dur (), Stats.retired r.Machine.stats)
                              :: !fit;
                       Inputs.expect "simulation hit a run limit"
                         r.Machine.finished;
                       Inputs.expect "arch digest differs from the interpreter"
                         (r.Machine.arch_digest = digest);
                       r.Machine.stats
                     in
                     let sb = run base dbase in
                     let se = run exp dexp in
                     let summary =
                       { Runner.sum_speedup_pct =
                           100.0
                           *. (Float.of_int sb.Stats.cycles
                               /. Float.of_int (max 1 se.Stats.cycles)
                              -. 1.0);
                         sum_base = sb;
                         sum_exp = se
                       }
                     in
                     let n =
                       Dag.node ~kind:"sim" ~label:u
                         ~deps:[ Dag.key dag pn ]
                         ~inputs:
                           ( input,
                             width,
                             "tournament",
                             Bv_cache.Hierarchy.default_config,
                             scale )
                         (fun () -> summary)
                     in
                     Span.with_ "persist_write" (fun () ->
                         ignore (Dag.eval dag n));
                     Inputs.expect
                       "replay differs from the untraced pass in cycles or \
                        retired instructions"
                       (List.assoc_opt u reference.counts
                       = Some
                           ( sb.Stats.cycles,
                             Stats.retired sb,
                             se.Stats.cycles,
                             Stats.retired se )))))
            Inputs.sweep_widths)
        inputs)
    reference.scaled;
  { r_wall = Unix.gettimeofday () -. t0; fit = List.rev !fit }
