type stats =
  { accesses : int;
    misses : int;
    evictions : int;
    writebacks : int
  }

type t =
  { name : string;
    line_bits : int;
    set_bits : int;
    set_count : int;
    ways : int;
    tags : int array;
        (* set * ways: [(tag lsl 1) lor dirty], -1 = invalid. [create]
           keeps at least two address bits out of the tag, so a tag is
           below 2^61 and a valid word is non-negative. *)
    lru : int array;  (* last-use stamp *)
    mutable clock : int;
    mutable accesses : int;
    mutable misses : int;
    mutable evictions : int;
    mutable writebacks : int
  }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

let create ~name ~size_bytes ~ways ~line_bytes =
  if not (is_pow2 line_bytes) then
    invalid_arg (name ^ ": line_bytes must be a power of two");
  if size_bytes mod (ways * line_bytes) <> 0 then
    invalid_arg (name ^ ": size not divisible by ways * line");
  let set_count = size_bytes / (ways * line_bytes) in
  if not (is_pow2 set_count) then
    invalid_arg (name ^ ": set count must be a power of two");
  if line_bytes * set_count < 4 then
    invalid_arg (name ^ ": line_bytes * sets must be at least 4");
  { name;
    line_bits = log2 line_bytes;
    set_bits = log2 set_count;
    set_count;
    ways;
    tags = Array.make (set_count * ways) (-1);
    lru = Array.make (set_count * ways) 0;
    clock = 0;
    accesses = 0;
    misses = 0;
    evictions = 0;
    writebacks = 0
  }

let name t = t.name
let line_bytes t = 1 lsl t.line_bits
let sets t = t.set_count

(* Index of the way holding [tag], or -1: the hot paths (access, probe)
   must not allocate, so neither an option per lookup nor a local
   recursive closure over [t]/[base]/[tag] — a plain loop. An invalid
   way's [-1 lsr 1] is [max_int], never a tag. *)
let find_way_idx t set tag =
  let base = set * t.ways in
  let last = base + t.ways in
  let i = ref base in
  while !i < last && t.tags.(!i) lsr 1 <> tag do
    incr i
  done;
  if !i < last then !i else -1

let victim_way t set =
  let base = set * t.ways in
  let best = ref base in
  for w = 1 to t.ways - 1 do
    let i = base + w in
    if t.tags.(i) = -1 && t.tags.(!best) <> -1 then best := i
    else if t.tags.(i) <> -1 && t.tags.(!best) <> -1
            && t.lru.(i) < t.lru.(!best)
    then best := i
  done;
  !best

let access t ~addr ~write =
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  let line = addr lsr t.line_bits in
  let set = line land (t.set_count - 1) in
  let tag = line lsr t.set_bits in
  let i = find_way_idx t set tag in
  if i >= 0 then begin
    t.lru.(i) <- t.clock;
    if write then t.tags.(i) <- t.tags.(i) lor 1;
    `Hit
  end
  else begin
    t.misses <- t.misses + 1;
    let i = victim_way t set in
    if t.tags.(i) <> -1 then begin
      t.evictions <- t.evictions + 1;
      if t.tags.(i) land 1 = 1 then t.writebacks <- t.writebacks + 1
    end;
    t.tags.(i) <- (tag lsl 1) lor Bool.to_int write;
    t.lru.(i) <- t.clock;
    `Miss
  end

let probe t ~addr =
  let line = addr lsr t.line_bits in
  let set = line land (t.set_count - 1) in
  let tag = line lsr t.set_bits in
  find_way_idx t set tag >= 0

let invalidate_all t = Array.fill t.tags 0 (Array.length t.tags) (-1)

let stats t =
  { accesses = t.accesses;
    misses = t.misses;
    evictions = t.evictions;
    writebacks = t.writebacks
  }

let snapshot t = { t with tags = [||]; lru = [||] }

let reset_stats t =
  t.accesses <- 0;
  t.misses <- 0;
  t.evictions <- 0;
  t.writebacks <- 0

let miss_rate t =
  if t.accesses = 0 then 0.0
  else Float.of_int t.misses /. Float.of_int t.accesses

let to_json t =
  let open Bv_obs.Json in
  Obj
    [ ("name", String t.name);
      ("sets", Int t.set_count);
      ("ways", Int t.ways);
      ("line_bytes", Int (1 lsl t.line_bits));
      ("size_bytes", Int (t.set_count * t.ways * (1 lsl t.line_bits)));
      ("accesses", Int t.accesses);
      ("misses", Int t.misses);
      ("evictions", Int t.evictions);
      ("writebacks", Int t.writebacks);
      ("miss_rate", float (miss_rate t))
    ]
