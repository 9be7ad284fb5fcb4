open Bv_bpred
open Machine_state

(* ---- completion ------------------------------------------------------- *)

(* Train the predictor entry recorded at fetch; a [no_ctrl_meta] column
   (wrong-path resolve with an empty DBB, or a ret) has nothing to
   train. *)
let train_predictor st h ~mispredict =
  let meta = st.c_meta.(h) in
  if meta != no_ctrl_meta then begin
    let taken = st.c_actual.(h) = 1 in
    st.predictor.Predictor.update meta ~pc:st.c_meta_pc.(h) ~taken;
    if mispredict then st.predictor.Predictor.recover meta ~taken
  end

let handle_completion st h =
  let kind = st.c_kind.(h) in
  if kind = ck_none then begin
    if st.static.(st.i_pc.(h)).s_is_halt then st.finished <- true
  end
  else begin
    let mispredict = st.c_mispredict.(h) = 1 in
    if st.acct_enabled then
      Acct.record_branch st.acct ~pc:st.i_pc.(h) ~mispredict
        ~latency:(st.now - st.i_fetch_cycle.(h));
    if kind = ck_branch then begin
      st.stats.Stats.branch_execs <- st.stats.Stats.branch_execs + 1;
      train_predictor st h ~mispredict;
      if mispredict then begin
        st.stats.Stats.branch_mispredicts <-
          st.stats.Stats.branch_mispredicts + 1;
        Spec_state.mispredict_flush st h
      end
    end
    else if kind = ck_resolve then begin
      st.stats.Stats.resolve_execs <- st.stats.Stats.resolve_execs + 1;
      train_predictor st h ~mispredict;
      if mispredict then begin
        st.stats.Stats.resolve_mispredicts <-
          st.stats.Stats.resolve_mispredicts + 1;
        Spec_state.mispredict_flush st h
      end;
      (* Free after any flush: the restored DBB snapshot (taken at this
         resolve's fetch) still holds the entry, so freeing first would
         let the restore resurrect it. *)
      let slot = st.c_dbb_slot.(h) in
      if slot >= 0 then Dbb.free st.dbb slot
    end
    else begin
      st.stats.Stats.ret_execs <- st.stats.Stats.ret_execs + 1;
      if mispredict then begin
        st.stats.Stats.ret_mispredicts <- st.stats.Stats.ret_mispredicts + 1;
        Spec_state.mispredict_flush st h
      end
    end
  end

let process_completions st =
  (* [next_complete] is a lower bound on every pending complete_cycle, so
     below it there is nothing to do — no scan at all on the (frequent)
     cycles spent waiting out a long load. *)
  if st.now >= st.next_complete then begin
  (* Collect completing entries into the scratch buffer first: a flush
     inside [handle_completion] compacts [st.pending], so the deque cannot
     be iterated live. Entries land in seq order. *)
  st.comp_len <- 0;
  let next = ref max_int in
  for k = 0 to Ring.length st.pending - 1 do
    let h = Ring.get st.pending k in
    let cc = st.i_complete_cycle.(h) in
    if cc <= st.now then begin
      if st.comp_len = Array.length st.comp_buf then begin
        let n = Array.length st.comp_buf in
        let buf = Array.make (2 * n) 0 in
        Array.blit st.comp_buf 0 buf 0 n;
        st.comp_buf <- buf
      end;
      st.comp_buf.(st.comp_len) <- h;
      st.comp_len <- st.comp_len + 1
    end
    else if cc < !next then next := cc
  done;
  (* A flush below only removes entries, so the bound can only go stale
     low — which merely costs a scan, never skips a completion. *)
  st.next_complete <- !next;
  for k = 0 to st.comp_len - 1 do
    let h = st.comp_buf.(k) in
    if st.i_squashed.(h) = 0 then begin
      if st.events_enabled then
        st.on_event
          (Completed
             { cycle = st.now;
               seq = st.i_seq.(h);
               mispredicted =
                 st.c_kind.(h) <> ck_none && st.c_mispredict.(h) = 1
             });
      handle_completion st h
    end
  done;
  (* Flushes remove their squashed suffix from the deque synchronously, so
     when nothing completed this cycle the deque needs no compaction. *)
  if st.comp_len > 0 then begin
    (* order-preserving in-place compaction, written out: a [~keep]
       closure here would allocate on every cycle that completes *)
    let p = st.pending in
    let w = ref 0 in
    for r = 0 to Ring.length p - 1 do
      let h = Ring.get p r in
      if not (st.i_squashed.(h) = 1 || st.i_complete_cycle.(h) <= st.now)
      then begin
        Ring.set p !w h;
        incr w
      end
    done;
    Ring.drop_tail p (Ring.length p - !w);
    (* Every collected handle is now off the deque (completed ones by the
       compaction above, flush-squashed ones by the flush itself — which
       recycles only the squashed handles NOT collected here, so no row
       is freed twice). *)
    for k = 0 to st.comp_len - 1 do
      recycle_inflight st st.comp_buf.(k)
    done;
    st.comp_len <- 0
  end
  end
