type window =
  { start_cycle : int;
    end_cycle : int;
    retired : int;
    mispredicts : int;
    icache_misses : int;
    ipc : float;
    mppki : float;
    dbb_avg_occupancy : float;
    components : int array  (* per-component cycle deltas; [||] w/o acct *)
  }

type t =
  { interval : int;
    acct : Acct.t option;
    mutable win_start : int;
    mutable retired_at_start : int;
    mutable mispredicts_at_start : int;
    mutable icache_misses_at_start : int;
    mutable components_at_start : int array;
    mutable dbb_sum : int;
    mutable dbb_count : int;
    mutable last_stats : Stats.t option;  (* for the partial tail window *)
    mutable rev_windows : window list
  }

let default_interval = 10_000

let create ?(interval = default_interval) ?acct () =
  if interval <= 0 then invalid_arg "Sampler.create: interval must be > 0";
  { interval;
    acct;
    win_start = 0;
    retired_at_start = 0;
    mispredicts_at_start = 0;
    icache_misses_at_start = 0;
    components_at_start =
      (match acct with
      | Some a -> Array.copy a.Acct.components
      | None -> [||]);
    dbb_sum = 0;
    dbb_count = 0;
    last_stats = None;
    rev_windows = []
  }

let interval t = t.interval

let close t ~end_cycle ~(stats : Stats.t) =
  let cycles = end_cycle - t.win_start in
  if cycles > 0 then begin
    let retired = Stats.retired stats - t.retired_at_start in
    let mispredicts = Stats.mispredicts stats - t.mispredicts_at_start in
    let icache_misses = stats.Stats.icache_misses - t.icache_misses_at_start in
    let components =
      match t.acct with
      | Some a ->
        Array.mapi
          (fun i v -> v - t.components_at_start.(i))
          a.Acct.components
      | None -> [||]
    in
    let w =
      { start_cycle = t.win_start;
        end_cycle;
        retired;
        mispredicts;
        icache_misses;
        ipc = Float.of_int retired /. Float.of_int cycles;
        mppki =
          (if retired = 0 then 0.0
           else 1000.0 *. Float.of_int mispredicts /. Float.of_int retired);
        dbb_avg_occupancy =
          (if t.dbb_count = 0 then 0.0
           else Float.of_int t.dbb_sum /. Float.of_int t.dbb_count);
        components
      }
    in
    t.rev_windows <- w :: t.rev_windows;
    t.win_start <- end_cycle;
    t.retired_at_start <- Stats.retired stats;
    t.mispredicts_at_start <- Stats.mispredicts stats;
    t.icache_misses_at_start <- stats.Stats.icache_misses;
    (match t.acct with
    | Some a ->
      Array.blit a.Acct.components 0 t.components_at_start 0
        Acct.n_components
    | None -> ());
    t.dbb_sum <- 0;
    t.dbb_count <- 0
  end

let observe t ~cycle ~stats ~dbb_occupancy =
  t.dbb_sum <- t.dbb_sum + dbb_occupancy;
  t.dbb_count <- t.dbb_count + 1;
  t.last_stats <- Some stats;
  if cycle - t.win_start >= t.interval then close t ~end_cycle:cycle ~stats

let finish t =
  match t.last_stats with
  | Some stats when t.dbb_count > 0 ->
    close t ~end_cycle:(t.win_start + t.dbb_count) ~stats
  | _ -> ()

let windows t = List.rev t.rev_windows

let window_json w =
  let open Bv_obs.Json in
  Obj
    ([ ("start_cycle", Int w.start_cycle);
       ("end_cycle", Int w.end_cycle);
       ("retired", Int w.retired);
       ("mispredicts", Int w.mispredicts);
       ("icache_misses", Int w.icache_misses);
       ("ipc", float w.ipc);
       ("mppki", float w.mppki);
       ("dbb_avg_occupancy", float w.dbb_avg_occupancy)
     ]
    @
    if Array.length w.components = 0 then []
    else
      [ ( "cpi",
          Obj
            (Array.to_list
               (Array.mapi
                  (fun i n -> (n, Int w.components.(i)))
                  Acct.component_names)) )
      ])

let to_json t =
  finish t;
  let open Bv_obs.Json in
  Obj
    [ ("interval", Int t.interval);
      ("windows", List (List.map window_json (windows t)))
    ]
