(* The workloads: set-up and one timed pass each. *)

open Bv_pipeline
module Runner = Bv_harness.Runner

let now = Unix.gettimeofday

(* ---- statistics ------------------------------------------------------- *)

(* [statistics.median]: the mean of the two middle values when even. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile with at least ten units beyond it: the 11th
   largest value, at percentile 100 (n - 10) / n. Below 11 units there
   is no such percentile and the maximum stands in. *)
let tail xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (0.0, 0.0)
  else if n < 11 then (a.(n - 1), 100.0)
  else (a.(n - 11), 100.0 *. Float.of_int (n - 10) /. Float.of_int n)

(* ---- workloads -------------------------------------------------------- *)

type ready =
  { run : unit -> Inputs.timing;  (** one pass over the workload's units *)
    input : string;  (** the input size, for the report *)
    store_mb : unit -> float option
        (** payload bytes the last pass wrote to its store, in MB *)
  }

let plain_pass run_one items =
  let units = ref [] and instrs = ref 0 in
  let g = Gauge.start () in
  let a0 = Span.allocated () and t0 = now () in
  List.iter
    (fun (name, item) ->
      let r, piece =
        Gauge.piece g name (fun () ->
            Inputs.check name (fun () -> run_one item))
      in
      Option.iter (fun n -> instrs := !instrs + n) r;
      units := piece :: !units)
    items;
  { Inputs.wall = now () -. t0;
    units = List.rev !units;
    others = [];
    instrs = !instrs;
    words = Span.allocated () -. a0
  }

let detailed (img : Inputs.image) =
  let r = Inputs.machine ~config:img.Inputs.config img.Inputs.image in
  Inputs.check_run img r;
  Stats.retired r.Machine.stats

let named prefix images =
  List.map
    (fun (img : Inputs.image) -> (prefix ^ "/" ^ img.Inputs.label, img))
    images

let images_input seed images =
  Printf.sprintf "%d images (tp-int, tp-mem at input %d)" (List.length images)
    (Inputs.ref_input seed 1)

let setup_sim_detailed seed =
  let images = Inputs.sim_images seed in
  let items = named "sim_detailed" images in
  ignore (plain_pass detailed items);
  { run = (fun () -> plain_pass detailed items);
    input = images_input seed images;
    store_mb = (fun () -> None)
  }

let sweep_input ~inputs specs =
  Printf.sprintf "%d benchmarks x inputs %s x widths %s at BV_SCALE %g"
    (List.length specs)
    (String.concat "," (List.map string_of_int inputs))
    (String.concat "," (List.map string_of_int Inputs.sweep_widths))
    (Runner.scale ())

(* Set-up warms the code paths with a cold pass of the first benchmark
   into a throw-away store. *)
let setup_sweep_cold seed =
  let specs = Inputs.sweep_specs and inputs = Inputs.sweep_inputs seed in
  let warm_dir = Inputs.fresh_dir "warmup" in
  ignore (Sweep.pass ~prove:true ~dir:warm_dir ~inputs [ List.hd specs ]);
  Inputs.rm_rf warm_dir;
  let bytes = ref 0 in
  { run =
      (fun () ->
        let dir = Inputs.fresh_dir "cold" in
        let p = Sweep.pass ~prove:true ~dir ~inputs specs in
        bytes := Inputs.store_bytes dir;
        Inputs.rm_rf dir;
        p.Sweep.timing);
    input = sweep_input ~inputs specs;
    store_mb = (fun () -> Some (Float.of_int !bytes /. 1e6))
  }

let workloads =
  [ ("sim_detailed", setup_sim_detailed);
    ("sweep_cold", setup_sweep_cold)
  ]

