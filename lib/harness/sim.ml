open Bv_bpred
open Bv_pipeline
open Bv_workloads

type t =
  { mutable jobs : int;
    cache_dir : string option;
    dag : Dag.t;
    lab : (string, Runner.bench) Hashtbl.t
  }

let create ?(jobs = 1) ?cache_dir () =
  { jobs = max 1 jobs;
    cache_dir;
    dag = Dag.create ?dir:cache_dir ();
    lab = Hashtbl.create 64
  }

let default =
  lazy
    (let cache_dir =
       match Sys.getenv_opt "BV_CACHE" with
       | Some "" | Some "0" | Some "none" -> None
       | Some dir -> Some dir
       | None -> Some ".bv-cache"
     in
     create ~jobs:(Pool.jobs_env ()) ?cache_dir ())

let the () = Lazy.force default

let jobs t = t.jobs
let set_jobs t jobs = t.jobs <- max 1 jobs
let cache_dir t = t.cache_dir
let counters t = Dag.counters t.dag
let counters_json t = Dag.counters_json t.dag

(* ---- pipeline nodes --------------------------------------------------- *)

(* The compile half of the pipeline: profile → select → transform, keyed
   by everything [Runner.prepare] depends on. The node's value is the
   pure {!Runner.artifact}; live benches (with their image tables) are
   interned in [lab] under the node key, so every caller of an equally
   parameterised prepare shares one bench. *)
let prepare_node ?(predictor = Kind.Tournament) ?(threshold = 0.05) ?max_hoist
    spec =
  Dag.node ~kind:"prepare" ~label:spec.Spec.name
    ~inputs:
      (spec, Kind.name predictor, threshold, max_hoist, Runner.scale ())
    (fun () ->
      Runner.export (Runner.prepare ~predictor ~threshold ?max_hoist spec))

let prepare ?predictor ?threshold ?max_hoist t spec =
  let n = prepare_node ?predictor ?threshold ?max_hoist spec in
  let k = Dag.key t.dag n in
  match Hashtbl.find_opt t.lab k with
  | Some b -> b
  | None ->
    let b = Runner.import ~origin:k (Dag.eval t.dag n) in
    Hashtbl.replace t.lab k b;
    b

let bench t spec = prepare t spec

(* ---- paired runs ------------------------------------------------------ *)

(* One paired run. The prepare node's key rides along as a dependency,
   so a pipeline change that invalidates the compile half invalidates
   exactly this cone. Taps are closures, not data: they stay out of the
   key, and a tapped run always simulates. *)
let pair_node ?(engine = Runner.Detailed) ?(observe = Runner.no_observers)
    ~config b ~input =
  let origin =
    match Runner.origin b with
    | Some k -> k
    | None -> invalid_arg "Sim.pair: the bench was not prepared by a session"
  in
  let label =
    Printf.sprintf "%s.i%d.w%d.%s%s%s" (Runner.spec b).Spec.name input
      config.Config.width
      (Kind.name config.Config.predictor)
      (match engine with
      | Runner.Detailed -> ""
      | Runner.Sampled p -> Printf.sprintf ".p%d" p.Machine.sp_period)
      (if observe.Runner.acct then ".acct" else "")
  in
  Dag.node ~kind:"sim" ~label ~deps:[ origin ]
    ~inputs:
      ( input,
        engine,
        (observe.Runner.acct, observe.Runner.windows),
        config,
        Runner.scale () )
    (fun () -> Runner.pair ~engine ~observe ~config b ~input)

let tapped = function Some { Runner.taps = Some _; _ } -> true | _ -> false

let pair ?engine ?observe ~config t b ~input =
  if tapped observe then Runner.pair ?engine ?observe ~config b ~input
  else Dag.eval t.dag (pair_node ?engine ?observe ~config b ~input)

let pairs ?engine ?observe ~config t b ~inputs =
  if tapped observe then invalid_arg "Sim.pairs: tapped runs go through pair";
  Dag.eval_list ~jobs:t.jobs t.dag
    (List.map (fun input -> pair_node ?engine ?observe ~config b ~input) inputs)

let summary ?predictor ?cache t spec ~input ~width =
  Runner.summarize
    (pair ~config:(Config.make ?predictor ?cache ~width ()) t (bench t spec)
       ~input)

let speedups ?predictor ?cache t b ~width =
  let config = Config.make ?predictor ?cache ~width () in
  List.map
    (fun input -> (pair ~config t b ~input).Runner.speedup_pct)
    (Runner.input_indices ())

let avg_speedup ?predictor ?cache t b ~width =
  Agg.mean (speedups ?predictor ?cache t b ~width)

let best_speedup ?predictor ?cache t b ~width =
  Agg.max_or 0.0 (speedups ?predictor ?cache t b ~width)

(* ---- fan-out ---------------------------------------------------------- *)

let dag_map t ~kind ?label f items =
  let nodes =
    List.map
      (fun item ->
        Dag.node ~kind
          ?label:(Option.map (fun l -> l item) label)
          ~inputs:(kind, item, Runner.scale ())
          (fun () -> f item))
      items
  in
  Dag.eval_list ~jobs:t.jobs t.dag nodes

let map t f items = Pool.map ~jobs:t.jobs f items
