(* Golden cycle-equivalence regression.

   The staged machine (Frontend/Scoreboard/Backend/Spec_state behind
   Machine.run) must reproduce the pre-refactor monolith's behaviour
   bit-for-bit: these goldens were captured from the single-module
   machine and every counter in Stats.to_json — cycles included — plus
   the architectural digests must match exactly.

   Regenerating (only after an *intentional* timing-model change):

     BV_GOLDEN_DIR=test/goldens dune exec test/test_goldens.exe

   from the repository root rewrites the files in place. *)

open Bv_pipeline

let cases = Golden_cases.cases

let capture ?compile (config : Config.t) image =
  let res = Machine.run ?compile ~config image in
  let open Bv_obs.Json in
  to_string ~indent:true
    (Obj
       [ ("config", String (Config.name config));
         ("finished", Bool res.Machine.finished);
         ("arch_digest", Int res.Machine.arch_digest);
         ("mem_digest", Int res.Machine.mem_digest);
         ("stores_retired", Int res.Machine.stores_retired);
         ("stats", Stats.to_json res.Machine.stats)
       ])
  ^ "\n"

let golden_path name = Filename.concat "goldens" (name ^ ".json")

let test_case (name, config, image) () =
  let image = Lazy.force image in
  let got = capture ~compile:true config image in
  (* Block-compiled dispatch must be indistinguishable from the
     interpreted front end in every counter and digest. *)
  let interp = capture ~compile:false config image in
  Alcotest.(check string) (name ^ " compiled = interpreted") interp got;
  match Sys.getenv_opt "BV_GOLDEN_DIR" with
  | Some dir ->
    let path = Filename.concat dir (name ^ ".json") in
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc got);
    Printf.printf "wrote %s\n%!" path
  | None ->
    let want =
      In_channel.with_open_text (golden_path name) In_channel.input_all
    in
    Alcotest.(check string) (name ^ " stats bit-for-bit") want got

let () =
  Alcotest.run "bv_goldens"
    [ ( "cycle-equivalence",
        List.map
          (fun ((name, _, _) as case) ->
            Alcotest.test_case name `Quick (test_case case))
          cases )
    ]
