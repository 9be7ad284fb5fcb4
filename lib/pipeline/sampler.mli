(** Interval telemetry: per-window IPC, MPPKI and DBB occupancy.

    Aggregate stats say *whether* the decomposition wins; the sampler says
    *when*. Feed {!observe} from {!Machine.run}'s [on_cycle] hook and it
    closes a window every [interval] cycles, recording the deltas of the
    relevant counters over that window. *)

type window =
  { start_cycle : int;
    end_cycle : int;  (** exclusive *)
    retired : int;  (** retired within the window *)
    mispredicts : int;  (** direction mispredicts within the window *)
    icache_misses : int;
    ipc : float;
    mppki : float;  (** per 1000 instructions retired in this window *)
    dbb_avg_occupancy : float;
    components : int array
        (** per-{!Acct} component cycle deltas over the window (summing
            to the window's cycle count — the per-window conservation
            invariant); [[||]] when sampling without an [acct] *)
  }

type t

val default_interval : int
(** 10_000 cycles. *)

val create : ?interval:int -> ?acct:Acct.t -> unit -> t
(** [interval] defaults to {!default_interval}. Raises [Invalid_argument] when
    not positive. Pass the same [acct] given to [Machine.run] to record
    per-window CPI-stack deltas ([window.components], and a ["cpi"]
    object per window in {!to_json}). *)

val interval : t -> int

val observe : t -> cycle:int -> stats:Stats.t -> dbb_occupancy:int -> unit
(** Call once per cycle (the signature matches [Machine.run]'s [on_cycle]
    hook exactly). Closes a window whenever [interval] cycles have
    elapsed since the last boundary. *)

val finish : t -> unit
(** Flush the final partial window, if any cycles are outstanding. Safe to
    call repeatedly. *)

val windows : t -> window list
(** Closed windows in time order ({!finish} first to include the tail). *)

val to_json : t -> Bv_obs.Json.t
(** [{ "interval": n, "windows": [...] }]; implies {!finish}. *)
