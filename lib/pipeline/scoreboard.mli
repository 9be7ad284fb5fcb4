(** Issue stage: in-order issue from the fetch-buffer head with
    head-of-line blocking.

    Up to [width] instructions issue per cycle, gated on operand
    readiness (the register scoreboard), functional-unit slots, and
    memory structural resources (MSHRs, store buffer). Stall causes are
    classified into the [Stats] head-stall counters, and per-site
    condition-wait (ASPCB) is measured at issue. When runahead is
    enabled, a fully-stalled cycle walks the fetch buffer and prefetches
    ready addresses. *)

val issue : Machine_state.t -> unit

val readiness : Machine_state.t -> Machine_state.static_info -> int
(** Max [ready] cycle over an instruction's three operand slots (0 when
    it reads no register) — the earliest cycle every operand can be
    available. Used by the fetch paths to fold newly enqueued memory
    entries into [sweep_bound] and by the stall skip's sweep bound. *)
