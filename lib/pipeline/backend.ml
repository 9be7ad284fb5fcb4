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

(* One forward pass: read position [r], survivors swapped down to the
   write position [w]. A flush inside [handle_completion] cuts the deque
   just after [r], so the loop ends there. Swapping, not overwriting,
   keeps [0, r] a permutation of the cycle's rows, which the flush's
   {!Machine_state.rebuild_scoreboard} needs (overwriting drops completed
   producers from it and breaks the goldens). *)
let process_completions st =
  (* [next_complete] is a lower bound on every pending complete_cycle, so
     below it there is nothing to do — no scan at all on the (frequent)
     cycles spent waiting out a long load. *)
  if st.now >= st.next_complete then begin
    let p = st.pending in
    let next = ref max_int in
    let w = ref 0 in
    let r = ref 0 in
    while !r < Ring.length p do
      let h = Ring.get p !r in
      let cc = st.i_complete_cycle.(h) in
      if cc <= st.now then begin
        if st.events_enabled then
          st.on_event
            (Completed
               { cycle = st.now;
                 seq = st.i_seq.(h);
                 mispredicted =
                   st.c_kind.(h) <> ck_none && st.c_mispredict.(h) = 1
               });
        handle_completion st h;
        recycle_inflight st h
      end
      else begin
        if cc < !next then next := cc;
        if !w < !r then begin
          Ring.set p !r (Ring.get p !w);
          Ring.set p !w h
        end;
        incr w
      end;
      incr r
    done;
    Ring.drop_tail p (Ring.length p - !w);
    st.next_complete <- !next
  end
