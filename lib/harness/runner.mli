(** End-to-end per-benchmark pipeline: generate → profile (TRAIN) →
    select → transform → schedule → simulate (REF inputs). {!pair} is the
    one paired baseline-vs-decomposed run; {!Sim} memoises it as a DAG
    node so experiments share runs. *)

open Bv_bpred
open Bv_pipeline
open Bv_workloads

type bench

val scale : unit -> float
(** Workload scale factor from the [BV_SCALE] environment variable
    (default 1.0): multiplies each spec's outer repetitions. Use e.g.
    [BV_SCALE=0.5] for quick runs. Read once and memoised, so a single
    run never mixes factors. *)

type artifact
(** The pure (marshal-safe) payload of a prepared bench: spec, profile,
    selection, transform and static sizes — everything except the image
    and digest tables. Persisted by {!Sim}'s artifact cache. *)

val export : bench -> artifact

val import : origin:string -> artifact -> bench
(** [import ~origin (export b)] is an equivalent bench with empty image
    and digest tables; [origin] is the key of the DAG prepare node the
    artifact came from. *)

val origin : bench -> string option
(** The prepare-node key passed to {!import}; [None] for a bench from
    {!prepare}. {!Sim} keys paired-run nodes by it. *)

val prepare :
  ?predictor:Kind.t -> ?threshold:float -> ?max_hoist:int -> Spec.t -> bench
(** Profile with [predictor] (default the baseline tournament) on the TRAIN
    input and apply selection + transformation. *)

val spec : bench -> Spec.t
val profile : bench -> Bv_profile.Profile.t
val selection : bench -> Vanguard.Select.t
val transform : bench -> Vanguard.Transform.result

val baseline_static : bench -> int
(** Laid-out baseline code size in instructions. *)

val experimental_static : bench -> int

val piscs : bench -> float
(** Percent increase in static code size. *)

val baseline_program : bench -> input:int -> Bv_ir.Layout.image
val experimental_program : bench -> input:int -> Bv_ir.Layout.image

val input_indices : unit -> int list
(** The REF input indices, [1 .. Suites.ref_inputs]. *)

(** {2 Paired runs} *)

type engine =
  | Detailed  (** {!Machine.run}: every cycle simulated *)
  | Sampled of Machine.sample_params
      (** {!Machine.run_sampled}: SMARTS windows, timing extrapolated *)

type observe =
  { acct : bool;  (** cycle accounting ({!Acct}) on both sides *)
    windows : int option;
        (** interval samplers ({!Sampler}) with this window in cycles,
            recording CPI-stack deltas when [acct] is on *)
    taps : ((Machine.event -> unit) * (Machine.event -> unit)) option
        (** live pipeline-event taps, baseline then experimental (e.g.
            {!Perfetto} collectors) *)
  }
(** What to attach to both runs of a pair. Observers never perturb
    timing: every counter is identical with or without them. *)

val no_observers : observe

type side =
  { result : Machine.result;
        (** its hierarchy is a {!Bv_cache.Hierarchy.snapshot}: counters
            only, no tag stores *)
    acct : Acct.t option;  (** with [observe.acct] *)
    samples : Sampler.t option;  (** with [observe.windows], finished *)
    estimate : Smarts.estimate option
        (** with the [Sampled] engine: the whole-run estimate, while
            [result.stats] covers only the detailed stretches *)
  }

type pair =
  { base : side;
    exp : side;
    speedup_pct : float
        (** 100 * (base cycles / exp cycles - 1), from the estimates'
            extrapolated cycles under the [Sampled] engine *)
  }
(** Plain data throughout (no closures, no tag stores): {!Sim} persists
    it whole and fork-pool workers return it. *)

val pair :
  ?engine:engine ->
  ?observe:observe ->
  config:Config.t ->
  bench ->
  input:int ->
  pair
(** Simulate one REF input, baseline vs. transformed, on [config] with
    [engine] (default [Detailed]) and [observe] (default
    {!no_observers}). Raises [Failure] naming the bench, side, input,
    width, predictor and engine if either run hits a run limit or its
    architectural digest differs from the functional interpreter's, and
    [Invalid_argument] for observers on a [Sampled] run (which takes
    none). Not memoised; {!Sim.pair} is. *)

val speedup_pct : float -> float -> float
(** [speedup_pct base_cycles exp_cycles]: 100 * (base / max 1 exp - 1). *)

val merged_acct : side list -> Acct.t
(** {!Acct.merge} of the sides' accounting — cross-input aggregation.
    Raises [Invalid_argument] on an empty list or a side run without
    [observe.acct]. *)

val pair_to_json : pair -> Bv_obs.Json.t
(** Speedup plus both sides' {!Machine.result_to_json} (with the
    ["sampled"] section under the [Sampled] engine), each followed by
    what its observers collected: ["samples"], ["cpi_stack"] and
    ["top_branches"]. *)

type sim_summary =
  { sum_speedup_pct : float;
    sum_base : Stats.t;  (** baseline run's counters *)
    sum_exp : Stats.t
  }
(** The essence of a {!pair} the experiment tables read: speedup plus
    both runs' stat counters. *)

val summarize : pair -> sim_summary

val advise :
  ?config:Bv_analysis.Advisor.config ->
  ?interproc:bool ->
  bench ->
  Bv_analysis.Advisor.t
(** Run the static cost-model advisor over the bench's TRAIN program,
    fused with its TRAIN profile — ranked per-site recommendations with
    no simulation beyond what {!prepare} already did. [interproc]
    (default false) costs the sites with interprocedural summaries
    ({!Bv_analysis.Summary}), so condition slices survive calls to
    procedures that provably leave their inputs alone. *)

type advice_checked =
  { ac_advice : Bv_analysis.Advisor.t;
    ac_validation : Bv_analysis.Advisor.validation;
    ac_inputs : int;  (** REF inputs the measured side aggregates *)
    ac_max_outstanding : int
        (** peak DBB occupancy {!Bv_analysis.Speculation.max_outstanding}
            proves for the transformed program — the advisor's static
            window-pressure estimate must cover it *)
  }
(** Marshal-safe (plain data throughout): an advise-and-validate result
    can come back from a {!Sim.map} fork-pool worker. *)

val advise_validate :
  ?config:Bv_analysis.Advisor.config ->
  ?interproc:bool ->
  bench ->
  pair list ->
  advice_checked
(** {!advise}, then join the static cycles-saved ranking against measured
    per-site recovery cycles from the baseline sides of [pairs] (accounted
    runs of one or more REF inputs, merged). The validation reports the
    Spearman rank correlation and the sites whose static and measured
    ranks diverge. Raises [Invalid_argument] when [pairs] is empty or ran
    without accounting. *)
