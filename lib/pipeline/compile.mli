(** Block-compiled simulation fast path.

    Extends the per-pc {!Machine_state.static_info} tables to per-pc
    {e fused step closures} plus per-basic-block straight-line run
    lengths: decode, operand indexing and the ALU/compare dispatch are
    folded into a closure at machine-creation time, and the front end
    ({!Frontend.fetch_group}) dispatches a whole straight-line run with
    the per-instruction loop checks hoisted out. Control instructions,
    halts and line-crossing fetches bail to the interpreted
    {!Frontend.fetch_exec} slow path, as does the entire machine when
    any observer (events, cycle accounting, per-cycle hook) is attached.

    The contract is byte-identity: a compiled run reproduces every
    counter in {!Stats.t} and both architectural digests of the
    interpreted run exactly (asserted by the golden tests and the CI
    byte-identity leg). *)

val attach : Machine_state.t -> unit
(** Build the fused closure and run-length tables for the machine's code
    image and arm the compiled dispatch ([st.compiled <- true]). Must
    only be called when the machine has no observers attached
    ([events_enabled = false], [acct_enabled = false]); {!Machine.run}
    enforces this. *)

val skip_stalls : Machine_state.t -> limit:int -> unit
(** Advance [st.now] in closed form through cycles where the machine
    provably only does bookkeeping — an empty fetch buffer behind a
    blocked front end, or a parked (operand-blocked) issue head with
    fetch also blocked (under runahead, additionally bounded by the
    earliest cycle the prefetch sweep could act). Applies the skipped
    cycles' counter updates exactly as the per-cycle loop would, in
    closed form (the cost does not grow with the cycles skipped); never
    advances past [limit] ([max_cycles]), a pending completion, a
    fetch-stall expiry or a park expiry. Compiled (observer-free) runs
    only. *)
