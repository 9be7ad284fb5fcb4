(* What the benchmark feeds the program: the pinned environment, the
   inputs a seed selects, the four simulator images, private store
   directories, and the bookkeeping of checked, timed units. *)

open Bv_bpred
open Bv_ir
open Bv_pipeline
open Bv_workloads

(* ---- environment ------------------------------------------------------ *)

(* Every variable the library reads, fixed before anything reads it.
   [Runner.scale] memoises BV_SCALE on first use, so this runs first. *)
let pinned =
  [ ("BV_SCALE", "0.1");
    ("BV_CACHE", "none");
    ("BV_JOBS", "1");
    ("BV_NO_COMPILE", "");
    ("BV_INTERPROC", "")
  ]

let pin_env () =
  let found = List.map (fun (k, _) -> (k, Sys.getenv_opt k)) pinned in
  List.iter (fun (k, v) -> Unix.putenv k v) pinned;
  Machine.set_compile_default true;
  found

(* ---- inputs ----------------------------------------------------------- *)

(* The seed picks the REF input data, not the code: a spec's seed fixes
   the program's structure, its input index the condition streams, the
   data and a small per-site shift of bias and predictability. Seed [n]
   uses input indices [k + n * ref_inputs] in place of the REF inputs
   [k = 1 .. ref_inputs]; TRAIN (input 0, which profiling reads) never
   moves. Seed 0 reproduces the repository's own runs: the bench
   throughput images and the suite's REF inputs. *)
let ref_input seed k = k + (seed * Suites.ref_inputs)

let sweep_names =
  [ "perlbench"; "gcc"; "mcf"; "astar"; "omnetpp"; "libquantum"; "lbm";
    "milc"; "soplex"; "gzip"; "twolf"; "art" ]

let sweep_specs =
  List.map
    (fun name ->
      match Suites.find name with
      | Some spec -> spec
      | None -> failwith ("perfbench: no suite benchmark " ^ name))
    sweep_names

let sweep_inputs seed =
  List.init Suites.ref_inputs (fun k -> ref_input seed (k + 1))

let sweep_widths = [ 4 ]

(* The bench throughput specs at their unscaled repetitions, so the
   images do not depend on the sweep's BV_SCALE. *)
let tp_int =
  Spec.make ~name:"tp-int" ~suite:Spec.Int_2006 ~seed:7001
    ~branch_classes:
      [ Spec.cls ~count:6 ~taken_rate:0.60 ~predictability:0.95 ();
        Spec.cls ~iid:true ~count:4 ~taken_rate:0.92 ~predictability:0.92 ();
        Spec.cls ~iid:true ~count:2 ~taken_rate:0.50 ~predictability:0.50 ()
      ]
    ~loads_per_block:3.0 ~cond_depth:4 ~inner_n:128 ~reps:60 ()

let tp_mem =
  Spec.make ~name:"tp-mem" ~suite:Spec.Fp_2006 ~seed:7002
    ~branch_classes:
      [ Spec.cls ~count:4 ~taken_rate:0.58 ~predictability:0.96 () ]
    ~loads_per_block:4.0 ~footprint_kb:128 ~chase_frac:0.2 ~cond_chase:true
    ~inner_n:64 ~reps:100 ()

(* ---- pipeline stages, each under its own span ------------------------- *)

let gen ~input spec = Span.with_ "gen" (fun () -> Gen.generate ~input spec)

let schedule program =
  Span.with_ "schedule" (fun () ->
      let p = Program.copy program in
      Bv_sched.Sched.schedule_program p;
      p)

let layout program = Span.with_ "layout" (fun () -> Layout.program program)

let profile image =
  Span.with_ "profile" (fun () ->
      Bv_profile.Profile.collect ~predictor:(Kind.create Kind.Tournament)
        image)

let select ~profile train =
  Span.with_ "select" (fun () -> Vanguard.Select.select ~profile train)

let transform ~candidates program =
  Span.with_ "transform" (fun () ->
      Vanguard.Transform.apply ~exit_live:Gen.live_at_exit ~candidates
        program)

let interp_digest image =
  Span.with_ "interp" (fun () ->
      Bv_exec.Interp.arch_digest (Bv_exec.Interp.run image))

let machine ~config image =
  Span.with_ "machine" (fun () -> Machine.run ~config image)

let run_sampled ~config image =
  Span.with_ "run_sampled" (fun () -> Machine.run_sampled ~config image)

(* ---- simulator images ------------------------------------------------- *)

type image =
  { label : string;
    config : Config.t;
    image : Layout.image;
    digest : int  (** interpreter reference arch digest *)
  }

let plain ~input spec = layout (schedule (gen ~input spec))

let decomposed ~input spec =
  let program = gen ~input spec in
  let train = gen ~input:0 spec in
  let profile = profile (layout (schedule train)) in
  let selection = select ~profile train in
  let result =
    transform ~candidates:selection.Vanguard.Select.candidates program
  in
  layout result.Vanguard.Transform.program

let runahead8 =
  { (Config.make ~predictor:Kind.Tage ~width:8 ()) with Config.runahead = true }

(* The four images behind the bench throughput rows. *)
let sim_images seed =
  let input = ref_input seed 1 in
  List.map
    (fun (label, config, image) ->
      { label; config; image; digest = interp_digest image })
    [ ("int_w4", Config.four_wide, plain ~input tp_int);
      ("int_decomposed_w4", Config.four_wide, decomposed ~input tp_int);
      ("mem_runahead_w8", runahead8, plain ~input tp_mem);
      ("mem_decomposed_runahead_w8", runahead8, decomposed ~input tp_mem)
    ]

(* ---- private store directories ---------------------------------------- *)

(* Everything the benchmark writes lives under [out_root] in the
   working directory; stores under [work_root] are removed at start and
   at exit. *)
let out_root = Filename.concat (Sys.getcwd ()) ".perfbench"
let work_root = Filename.concat out_root "stores"
let dirs_made = ref 0

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir tag =
  List.iter ensure_dir [ out_root; work_root ];
  incr dirs_made;
  let dir =
    Filename.concat work_root
      (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) !dirs_made)
  in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  dir

(* Payload bytes of every node in a store: what a cold pass wrote and a
   warm pass reads back. *)
let store_bytes dir =
  List.fold_left
    (fun acc e -> acc + e.Bv_harness.Dag.e_bytes)
    0 (Bv_harness.Dag.entries dir)

(* Bytes this process has read through read(2) so far, the [rchar] line
   of /proc/self/io: around a warm pass, what loading its nodes read,
   sidecars and re-reads included. *)
let read_bytes () =
  let ic = open_in "/proc/self/io" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match String.split_on_char ':' (input_line ic) with
        | [ "rchar"; v ] -> int_of_string (String.trim v)
        | _ -> find ()
      in
      find ())

(* ---- checked, timed units --------------------------------------------- *)

(* One pass over a workload. [units] and [others] together cover the
   timed work of the pass. *)
type timing =
  { wall : float;  (** host seconds of the pass *)
    units : Gauge.piece list;  (** each unit run *)
    others : Gauge.piece list;
        (** the pass's other pieces: sessions, prepares, proofs *)
    instrs : int;  (** simulated retired instructions the results cover *)
    words : float  (** words allocated over the timed section *)
  }

let attempted = ref 0
let failed = ref 0

(* Run one unit of work whose checks raise on a wrong output. A failure
   is counted, printed with the unit's name and never aborts the run. *)
let check name f =
  incr attempted;
  match f () with
  | v -> Some v
  | exception e ->
    incr failed;
    Printf.printf "FAILED %s: %s\n%!" name (Printexc.to_string e);
    None

let expect name cond = if not cond then failwith name

let check_run (img : image) (r : Machine.result) =
  expect "simulation hit a run limit" r.Machine.finished;
  expect "arch digest differs from the interpreter"
    (r.Machine.arch_digest = img.digest)
