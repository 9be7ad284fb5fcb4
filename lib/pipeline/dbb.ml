open Bv_bpred

(* Struct-of-arrays storage: the DBB sits on the decomposed hot path
   (one allocate per predict, one claim + one free per resolve), so the
   slots are parallel arrays and the live set is tracked by counters —
   no slot records, no order list to cons/filter, no closures in
   snapshot/restore. A slot is empty iff its id is 0; ids are unique and
   strictly increasing, so "newest unclaimed" is the unclaimed live slot
   with the greatest id (the buffer is small enough that the O(entries)
   scan is cheaper than maintaining any order structure). *)
type t =
  { slot_id : int array;  (* 0 = empty, else unique allocation id *)
    slot_claimed : int array;  (* 0 / 1 *)
    slot_pc : int array;
    slot_taken : int array;  (* 0 / 1 *)
    slot_meta : Predictor.meta array;  (* stale when empty *)
    mutable live : int;
    mutable next : int;  (* ring allocation pointer *)
    mutable alloc_id : int
  }

(* A snapshot records which allocation occupied each slot and whether it
   was claimed. Restoring must never resurrect an entry freed since the
   snapshot (an older resolve may legitimately have completed in
   between), so restoration is an intersection keyed by allocation id:
   - same id still present: revert its claimed flag;
   - different/new id in the slot: allocated after the snapshot — drop it;
   - slot now empty: freed since — stays empty. *)
type snapshot =
  { snap_id : int array;
    snap_claimed : int array;
    mutable snap_next : int
  }

let no_meta : Predictor.meta = [||]

let create ~entries =
  { slot_id = Array.make entries 0;
    slot_claimed = Array.make entries 0;
    slot_pc = Array.make entries 0;
    slot_taken = Array.make entries 0;
    slot_meta = Array.make entries no_meta;
    live = 0;
    next = 0;
    alloc_id = 0
  }

let capacity t = Array.length t.slot_id
let occupancy t = t.live
let is_full t = t.live = Array.length t.slot_id

let allocate t ~pc ~meta ~taken =
  if is_full t then -1
  else begin
    let n = Array.length t.slot_id in
    let idx = ref t.next in
    while t.slot_id.(!idx) <> 0 do
      idx := (!idx + 1) mod n
    done;
    let idx = !idx in
    t.alloc_id <- t.alloc_id + 1;
    t.slot_id.(idx) <- t.alloc_id;
    t.slot_claimed.(idx) <- 0;
    t.slot_pc.(idx) <- pc;
    t.slot_taken.(idx) <- (if taken then 1 else 0);
    t.slot_meta.(idx) <- meta;
    t.live <- t.live + 1;
    t.next <- (idx + 1) mod n;
    idx
  end

let claim_newest t =
  let best = ref (-1) and best_id = ref 0 in
  for i = 0 to Array.length t.slot_id - 1 do
    if t.slot_id.(i) > !best_id && t.slot_claimed.(i) = 0 then begin
      best := i;
      best_id := t.slot_id.(i)
    end
  done;
  if !best >= 0 then t.slot_claimed.(!best) <- 1;
  !best

let slot_pc t idx = t.slot_pc.(idx)
let slot_meta t idx = t.slot_meta.(idx)
let slot_taken t idx = t.slot_taken.(idx) = 1

let free t idx =
  if t.slot_id.(idx) <> 0 then begin
    t.slot_id.(idx) <- 0;
    t.slot_meta.(idx) <- no_meta;
    t.live <- t.live - 1
  end

let create_snapshot t =
  let n = Array.length t.slot_id in
  { snap_id = Array.make n 0; snap_claimed = Array.make n 0; snap_next = 0 }

let snapshot_into t snap =
  let n = Array.length t.slot_id in
  Array.blit t.slot_id 0 snap.snap_id 0 n;
  Array.blit t.slot_claimed 0 snap.snap_claimed 0 n;
  snap.snap_next <- t.next

let restore t snap =
  let live = ref 0 in
  for i = 0 to Array.length t.slot_id - 1 do
    if t.slot_id.(i) <> 0 then
      if t.slot_id.(i) = snap.snap_id.(i) then begin
        t.slot_claimed.(i) <- snap.snap_claimed.(i);
        incr live
      end
      else begin
        (* allocated after the snapshot — wrong path, drop *)
        t.slot_id.(i) <- 0;
        t.slot_meta.(i) <- no_meta
      end
  done;
  t.live <- !live;
  t.next <- snap.snap_next
