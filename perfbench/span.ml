(* In-memory span recorder for the traced run. Spans are opened around
   the benchmark's own calls into a layer's public functions, kept in
   memory while the benchmark runs and written out at exit as a Chrome
   trace. Recording is off unless [enabled] is set, so the untraced
   run pays one branch per call site. *)

type span =
  { id : int;
    name : string;
    section : string;
    parent : int;  (** id of the enclosing span, 0 at top level *)
    start : float;  (** seconds since the recorder started *)
    dur : float;
    alloc : float;  (** words allocated between open and close *)
    self_dur : float;  (** [dur] minus the children's *)
    self_alloc : float  (** [alloc] minus the children's *)
  }

type open_span =
  { o_id : int;
    mutable child_dur : float;
    mutable child_alloc : float
  }

let enabled = ref false
let origin = Unix.gettimeofday ()
let next_id = ref 1
let section_name = ref "main"
let finished : span list ref = ref []

(* the open spans, innermost first *)
let stack : open_span list ref = ref []

let now () = Unix.gettimeofday () -. origin

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let with_ name f =
  if not !enabled then f ()
  else begin
    let o = { o_id = !next_id; child_dur = 0.0; child_alloc = 0.0 } in
    incr next_id;
    let parent = match !stack with p :: _ -> p.o_id | [] -> 0 in
    let start = now () and a0 = allocated () in
    stack := o :: !stack;
    let close () =
      let dur = now () -. start and alloc = allocated () -. a0 in
      stack := List.tl !stack;
      (match !stack with
      | p :: _ ->
        p.child_dur <- p.child_dur +. dur;
        p.child_alloc <- p.child_alloc +. alloc
      | [] -> ());
      finished :=
        { id = o.o_id;
          name;
          section = !section_name;
          parent;
          start;
          dur;
          alloc;
          self_dur = dur -. o.child_dur;
          self_alloc = alloc -. o.child_alloc
        }
        :: !finished
    in
    Fun.protect ~finally:close f
  end

(* Run [f] with its spans tagged as section [name]. *)
let in_section name f =
  let saved = !section_name in
  section_name := name;
  Fun.protect ~finally:(fun () -> section_name := saved) f

(* The spans of one section, oldest first. *)
let section name = List.rev (List.filter (fun s -> s.section = name) !finished)

(* Duration of the span closed last. *)
let last_dur () = match !finished with s :: _ -> s.dur | [] -> 0.0

type agg =
  { calls : int;
    self_s : float;
    self_words : float
  }

(* Per-name totals of [spans]: calls, self time, self allocation. *)
let aggregate spans name =
  List.fold_left
    (fun a s ->
      if s.name <> name then a
      else
        { calls = a.calls + 1;
          self_s = a.self_s +. s.self_dur;
          self_words = a.self_words +. s.self_alloc
        })
    { calls = 0; self_s = 0.0; self_words = 0.0 }
    spans

(* Every recorded span as a Chrome trace: one thread per section, 1 us
   per microsecond of host time. *)
let write_chrome_trace path =
  let open Bv_obs in
  let t = Trace_event.create () in
  Trace_event.set_process_name t ~pid:1 "perfbench";
  let tids = Hashtbl.create 8 in
  let tid_of section =
    match Hashtbl.find_opt tids section with
    | Some tid -> tid
    | None ->
      let tid = Hashtbl.length tids + 1 in
      Hashtbl.replace tids section tid;
      Trace_event.set_thread_name t ~pid:1 ~tid section;
      tid
  in
  List.iter
    (fun s ->
      Trace_event.span t ~name:s.name ~cat:s.section ~pid:1
        ~tid:(tid_of s.section) ~ts:(s.start *. 1e6) ~dur:(s.dur *. 1e6)
        ~args:
          [ ("id", Json.Int s.id);
            ("parent", Json.Int s.parent);
            ("alloc_words", Json.float s.alloc)
          ]
        ())
    (List.rev !finished);
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Json.to_channel oc (Trace_event.to_json t))
