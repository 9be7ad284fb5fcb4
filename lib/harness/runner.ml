open Bv_bpred
open Bv_cache
open Bv_exec
open Bv_ir
open Bv_pipeline
open Bv_workloads

type bench =
  { spec : Spec.t;
    profile : Bv_profile.Profile.t;
    selection : Vanguard.Select.t;
    transform : Vanguard.Transform.result;
    max_hoist : int option;
    baseline_static : int;
    experimental_static : int;
    images : (int, Layout.image * Layout.image) Hashtbl.t;
    digests : (int, int * int) Hashtbl.t;
    origin : string option
  }

(* Read BV_SCALE once: every artifact-cache key and every scaled spec in
   the process must agree on the factor, even if the environment is
   mutated mid-run. *)
let scale =
  let memo = ref None in
  fun () ->
    match !memo with
    | Some s -> s
    | None ->
      let s =
        match Sys.getenv_opt "BV_SCALE" with
        | Some s -> ( try Float.of_string s with _ -> 1.0)
        | None -> 1.0
      in
      memo := Some s;
      s

let scaled_spec spec =
  let reps =
    max 2 (Float.to_int (Float.round (Float.of_int spec.Spec.reps *. scale ())))
  in
  { spec with Spec.reps }

(* Baseline compilation = block-local list scheduling of a copy. *)
let baseline_of program =
  let p = Program.copy program in
  Bv_sched.Sched.schedule_program p;
  p

let prepare ?(predictor = Kind.Tournament) ?(threshold = 0.05) ?max_hoist
    spec =
  let spec = scaled_spec spec in
  let train = Gen.generate ~input:0 spec in
  let train_image = Layout.program (baseline_of train) in
  let profile =
    Bv_profile.Profile.collect ~predictor:(Kind.create predictor) train_image
  in
  let selection = Vanguard.Select.select ~threshold ~profile train in
  let transform =
    Vanguard.Transform.apply ?max_hoist ~exit_live:Gen.live_at_exit
      ~candidates:selection.Vanguard.Select.candidates train
  in
  let bench =
    { spec;
      profile;
      selection;
      transform;
      max_hoist;
      baseline_static = Array.length train_image.Layout.code;
      experimental_static =
        Array.length (Layout.program transform.Vanguard.Transform.program)
          .Layout.code;
      images = Hashtbl.create 8;
      digests = Hashtbl.create 8;
      origin = None
    }
  in
  bench

(* The pure, closure-free payload of a prepared bench — what {!Sim}
   persists to the on-disk artifact cache. The image and digest tables
   are rebuilt empty on import. *)
type artifact =
  { a_spec : Spec.t;
    a_profile : Bv_profile.Profile.t;
    a_selection : Vanguard.Select.t;
    a_transform : Vanguard.Transform.result;
    a_max_hoist : int option;
    a_baseline_static : int;
    a_experimental_static : int
  }

let export b =
  { a_spec = b.spec;
    a_profile = b.profile;
    a_selection = b.selection;
    a_transform = b.transform;
    a_max_hoist = b.max_hoist;
    a_baseline_static = b.baseline_static;
    a_experimental_static = b.experimental_static
  }

let import ~origin a =
  { spec = a.a_spec;
    profile = a.a_profile;
    selection = a.a_selection;
    transform = a.a_transform;
    max_hoist = a.a_max_hoist;
    baseline_static = a.a_baseline_static;
    experimental_static = a.a_experimental_static;
    images = Hashtbl.create 8;
    digests = Hashtbl.create 8;
    origin = Some origin
  }

let origin b = b.origin
let spec b = b.spec
let profile b = b.profile
let selection b = b.selection
let transform b = b.transform
let baseline_static b = b.baseline_static
let experimental_static b = b.experimental_static

let piscs b =
  100.0
  *. Float.of_int (b.experimental_static - b.baseline_static)
  /. Float.of_int (max 1 b.baseline_static)

let images b ~input =
  match Hashtbl.find_opt b.images input with
  | Some pair -> pair
  | None ->
    let program = Gen.generate ~input b.spec in
    let base = Layout.program (baseline_of program) in
    let exp_result =
      Vanguard.Transform.apply ?max_hoist:b.max_hoist
        ~exit_live:Gen.live_at_exit
        ~candidates:b.selection.Vanguard.Select.candidates program
    in
    let exp = Layout.program exp_result.Vanguard.Transform.program in
    Hashtbl.replace b.images input (base, exp);
    (base, exp)

let baseline_program b ~input = fst (images b ~input)
let experimental_program b ~input = snd (images b ~input)

let reference_digests b ~input =
  match Hashtbl.find_opt b.digests input with
  | Some d -> d
  | None ->
    let base, exp = images b ~input in
    let d =
      ( Interp.arch_digest (Interp.run base),
        Interp.arch_digest (Interp.run exp) )
    in
    Hashtbl.replace b.digests input d;
    d

let input_indices () = List.init Suites.ref_inputs (fun k -> k + 1)

(* ------------------------------------------------------- paired runs -- *)

type engine = Detailed | Sampled of Machine.sample_params

type observe =
  { acct : bool;
    windows : int option;
    taps : ((Machine.event -> unit) * (Machine.event -> unit)) option
  }

let no_observers = { acct = false; windows = None; taps = None }

type side =
  { result : Machine.result;
    acct : Acct.t option;
    samples : Sampler.t option;
    estimate : Smarts.estimate option
  }

type pair =
  { base : side;
    exp : side;
    speedup_pct : float
  }

let speedup_pct base exp = 100.0 *. ((base /. Float.max 1.0 exp) -. 1.0)

let engine_name = function
  | Detailed -> "detailed"
  | Sampled p ->
    Printf.sprintf "sampled %d/%d/%d" p.Machine.sp_period p.Machine.sp_detail
      p.Machine.sp_warmup

let run_side ~engine ~observe ~config tap image =
  match (engine, observe) with
  | Detailed, _ ->
    let acct =
      if observe.acct then Some (Acct.create image.Layout.code) else None
    in
    let samples =
      Option.map
        (fun interval -> Sampler.create ~interval ?acct ())
        observe.windows
    in
    let on_cycle =
      Option.map
        (fun s ~cycle ~stats ~dbb_occupancy ->
          Sampler.observe s ~cycle ~stats ~dbb_occupancy)
        samples
    in
    let result = Machine.run ?on_event:tap ?on_cycle ?acct ~config image in
    Option.iter Sampler.finish samples;
    { result; acct; samples; estimate = None }
  | Sampled params, { acct = false; windows = None; taps = None } ->
    let s = Machine.run_sampled ~params ~config image in
    { result = s.Machine.sam_result;
      acct = None;
      samples = None;
      estimate = Some s.Machine.sam_estimate
    }
  | Sampled _, _ -> invalid_arg "Runner.pair: a sampled run takes no observers"

let pair ?(engine = Detailed) ?(observe = no_observers) ~config b ~input =
  let base_img, exp_img = images b ~input in
  let dbase, dexp = reference_digests b ~input in
  let base_tap, exp_tap =
    match observe.taps with
    | Some (bt, et) -> (Some bt, Some et)
    | None -> (None, None)
  in
  let base = run_side ~engine ~observe ~config base_tap base_img in
  let exp = run_side ~engine ~observe ~config exp_tap exp_img in
  (* Sampled runs fast-forward with committed semantics, so their
     architectural results must match the interpreter exactly too. *)
  let check name want side =
    let r = side.result in
    let fail what =
      failwith
        (Printf.sprintf "%s/%s (input %d, %d-wide, %s, %s): %s"
           b.spec.Spec.name name input config.Config.width
           (Kind.name config.Config.predictor)
           (engine_name engine) what)
    in
    if not r.Machine.finished then fail "simulation hit a run limit";
    if r.Machine.arch_digest <> want then
      fail "timing model diverged from the interpreter";
    (* the tag stores are dead weight once the run is over *)
    { side with
      result =
        { r with Machine.hierarchy = Hierarchy.snapshot r.Machine.hierarchy }
    }
  in
  let base = check "baseline" dbase base in
  let exp = check "experimental" dexp exp in
  let cycles side =
    match side.estimate with
    | Some e -> e.Smarts.est_cycles
    | None -> Float.of_int side.result.Machine.stats.Stats.cycles
  in
  { base; exp; speedup_pct = speedup_pct (cycles base) (cycles exp) }

let merged_acct sides =
  let acct side =
    match side.acct with
    | Some a -> a
    | None -> invalid_arg "Runner.merged_acct: a side ran without accounting"
  in
  match sides with
  | [] -> invalid_arg "Runner.merged_acct: no runs"
  | first :: rest ->
    List.fold_left (fun a side -> Acct.merge a (acct side)) (acct first) rest

(* The marshal-safe essence of a paired run that perfbench and the
   experiment tables read: the speedup and both runs' counters. *)
type sim_summary =
  { sum_speedup_pct : float;
    sum_base : Stats.t;
    sum_exp : Stats.t
  }

let summarize p =
  { sum_speedup_pct = p.speedup_pct;
    sum_base = p.base.result.Machine.stats;
    sum_exp = p.exp.result.Machine.stats
  }

let side_to_json s =
  match Machine.result_to_json ?sampled:s.estimate s.result with
  | Bv_obs.Json.Obj fields ->
    Bv_obs.Json.Obj
      (fields
      @ (match s.samples with
        | Some w -> [ ("samples", Sampler.to_json w) ]
        | None -> [])
      @
      match s.acct with
      | Some a ->
        [ ("cpi_stack", Acct.cpi_stack_json a);
          ("top_branches", Acct.top_branches_json a)
        ]
      | None -> [])
  | other -> other

let pair_to_json p =
  let open Bv_obs.Json in
  Obj
    [ ("speedup_pct", float p.speedup_pct);
      ("baseline", side_to_json p.base);
      ("experimental", side_to_json p.exp)
    ]

(* ------------------------------------------------- advise & validate -- *)

let advise ?config ?(interproc = false) b =
  (* The TRAIN program the profile and selection were built from: the
     spec in the bench record is already scaled. *)
  let train = Gen.generate ~input:0 b.spec in
  let summaries =
    if interproc then Some (Bv_analysis.Summary.compute train) else None
  in
  let costs =
    Bv_analysis.Costmodel.analyze ?max_hoist:b.max_hoist
      ~exit_live:Gen.live_at_exit ?summaries train
  in
  Bv_analysis.Advisor.advise ?config ~profile:b.profile costs

type advice_checked =
  { ac_advice : Bv_analysis.Advisor.t;
    ac_validation : Bv_analysis.Advisor.validation;
    ac_inputs : int;
    ac_max_outstanding : int
  }

let max_outstanding_of program =
  List.fold_left
    (fun acc p -> max acc (Bv_analysis.Speculation.max_outstanding p))
    0 program.Program.procs

let advise_validate ?config ?interproc b pairs =
  let advice = advise ?config ?interproc b in
  (* Measured cost per site: the baseline run's recovery cycles — what a
     mispredicting branch actually stalls the front end for, the quantity
     the static cycles-saved ranking claims to predict. *)
  let measured =
    List.map
      (fun sa -> (sa.Acct.sa_site, Float.of_int sa.Acct.sa_recovery))
      (Acct.by_site (merged_acct (List.map (fun p -> p.base) pairs)))
  in
  { ac_advice = advice;
    ac_validation = Bv_analysis.Advisor.validate ~measured advice;
    ac_inputs = List.length pairs;
    ac_max_outstanding =
      max_outstanding_of b.transform.Vanguard.Transform.program
  }
