(** Set-associative cache with true-LRU replacement and write-back,
    write-allocate policy. Only tags are tracked (data values live in the
    functional memory); the model answers hit/miss and counts traffic. *)

type t

type stats =
  { accesses : int;
    misses : int;
    evictions : int;
    writebacks : int
  }

val create :
  name:string -> size_bytes:int -> ways:int -> line_bytes:int -> t
(** Raises [Invalid_argument] unless sizes are powers of two and
    consistent, with [line_bytes * sets >= 4] (the dirty bit shares the
    tag word). *)

val name : t -> string
val line_bytes : t -> int
val sets : t -> int

val access : t -> addr:int -> write:bool -> [ `Hit | `Miss ]
(** Look up the line containing byte address [addr]; on a miss the line is
    filled (allocated) and the LRU victim evicted. [write] marks the line
    dirty; evicting a dirty line counts a writeback. *)

val probe : t -> addr:int -> bool
(** Non-allocating lookup: would [addr] hit right now? No stats change. *)

val invalidate_all : t -> unit
val stats : t -> stats
val reset_stats : t -> unit

val snapshot : t -> t
(** Geometry and counters without the tag store: what {!stats},
    {!miss_rate} and {!to_json} read, in a few words. Not for further
    accesses. *)

val miss_rate : t -> float

val to_json : t -> Bv_obs.Json.t
(** Geometry plus the current stats and miss rate. *)
