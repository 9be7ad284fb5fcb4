(* Metrics and their report: a table for people, then the JSON line. *)

type metric =
  { m_name : string;
    value : float option;  (** [None]: does not apply to this workload *)
    unit_ : string;
    kind : string;
    note : string
  }

let metric ?(note = "") m_name unit_ kind value =
  { m_name; value; unit_; kind; note }

(* The end-to-end metrics the JSON line carries: every one that applies
   to every workload. *)
let reported =
  [ "setup_s"; "wall_s"; "sim_mips"; "unit_s_p50"; "unit_s_tail";
    "alloc_words_per_instr"; "heap_peak_mb" ]

let print_table metrics =
  Printf.printf "  %-36s %22s  %-10s %s\n" "metric" "value" "unit" "kind";
  List.iter
    (fun m ->
      Printf.printf "  %-36s %22s  %-10s %s%s\n" m.m_name
        (match m.value with
        | Some v -> Printf.sprintf "%.6g" v
        | None -> "0 (n/a)")
        m.unit_ m.kind
        (if m.note = "" then "" else "  (" ^ m.note ^ ")"))
    metrics

let print_result metrics =
  let open Bv_obs.Json in
  print_endline
    (to_string
       (Obj
          [ ("correct", Bool (!Inputs.failed = 0));
            ("attempted", Int !Inputs.attempted);
            ("failed", Int !Inputs.failed);
            ( "metrics",
              Obj
                (List.filter_map
                   (fun m ->
                     match m.value with
                     | Some v ->
                       Some
                         ( m.m_name,
                           Obj
                             [ ("value", float v);
                               ("unit", String m.unit_)
                             ] )
                     | None -> None)
                   metrics) )
          ]))

