(** Completion stage: retire finished instructions, train the predictor,
    and trigger mispredict recovery.

    Control-instruction completion is where speculation resolves — the
    predictor is trained, mispredicts invoke {!Spec_state.flush}, and
    resolves free their DBB slot (after any flush, so the restored
    snapshot cannot resurrect the entry). *)

open Machine_state

val process_completions : t -> unit
(** Complete every pending instruction whose [complete_cycle] has
    arrived, in seq order, in one pass over [pending] that also compacts
    the survivors in place (seq order kept) and recycles each completed
    row. A mispredict among them flushes: the flush cuts [pending] just
    after the mispredicting row and recycles the whole squashed tail, so
    afterwards every pool row is again in exactly one of the fetch
    buffer, [pending] and the free list. Sets [next_complete] to the
    earliest survivor's complete cycle. *)

val handle_completion : t -> handle -> unit
(** The per-instruction completion action (predictor training, stats,
    mispredict flush). Exposed for stage-level tests. *)
