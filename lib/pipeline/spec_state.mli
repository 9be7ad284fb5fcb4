(** Speculative-state management: the undo-logged memory image,
    checkpoints, and the squash/rollback machinery shared by every
    mispredicting control instruction (branches, returns, resolves).

    The machine executes architecturally at fetch, so wrong-path work
    mutates the registers and memory directly; this module is what makes
    that recoverable. *)

open Machine_state

val spec_load : t -> addr:int -> int
(** Wrong-path-safe load: misaligned or out-of-range addresses read 0. *)

val spec_store : t -> addr:int -> int -> unit
(** Wrong-path-safe store; the old value is pushed onto the undo log. *)

val checkpoint_into : t -> handle -> unit
(** Snapshot registers, undo-log position, call stack, RAS depth, DBB and
    the halt flag into row [h]'s own checkpoint ([c_ckpt]), allocating
    that storage only the first time the row needs it, and mark the row
    as holding one ([c_has_ckpt]). Increments the live-checkpoint count
    (which pins the undo log). *)

val release_checkpoint : t -> handle -> unit
(** Drop the live checkpoint of a squashed control instruction, if it
    holds one, unpinning the undo log once no checkpoints remain. *)

val log_trim : t -> unit
(** Discard the undo log when no checkpoints are live (called once per
    cycle). *)

val log_depth : t -> int
(** Current undo-log length (for tests). *)

val flush : t -> from_seq:int -> checkpoint:checkpoint -> new_pc:int -> unit
(** Roll architectural state back to [checkpoint], squash everything
    younger than [from_seq] in the fetch buffer and the pending list,
    rebuild the scoreboard and redirect fetch to [new_pc]. *)

val mispredict_flush : t -> handle -> unit
(** [flush] driven by a mispredicting control instruction's own
    checkpoint and redirect columns. *)
