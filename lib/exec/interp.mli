(** Architectural reference interpreter for laid-out programs.

    Decomposed branches make the {e prediction} direction architecturally
    irrelevant: whatever direction a [predict] takes, the [resolve] on that
    path redirects control if the prediction disagreed with the condition,
    so the final state must be identical. [run]'s [predict_policy] lets
    tests drive the predict decisions arbitrarily and check exactly that. *)

open Bv_ir

exception Fault of string
(** Raised for architectural faults: unaligned or out-of-range non-
    speculative memory access, return with empty call stack, PC out of
    code bounds. Speculative loads never fault — they return 0 instead. *)

type state =
  { regs : int array;
    mem : int array;
    mutable pc : int;
    mutable halted : bool;
    mutable instr_count : int;
    mutable load_count : int;
    mutable store_count : int;
    call_stack : int Stack.t;
    targets : int array
        (** per pc: the instruction's label target pc, resolved once by
            {!init}; -1 for instructions without a label *)
  }

val init : Layout.image -> state
(** Fresh state at the image entry with segment-initialised memory and
    the image's label targets resolved. Raises [Not_found] for a label
    the image does not define. *)

type hooks =
  { on_branch : id:int -> pc:int -> taken:bool -> unit;
        (** called for every executed [Branch] *)
    on_resolve : id:int -> pc:int -> mispredicted:bool -> taken:bool -> unit
        (** called for every executed [Resolve]; [taken] is the original
            branch outcome *)
  }

val no_hooks : hooks

val step :
  ?hooks:hooks ->
  ?predict_policy:(pc:int -> id:int -> bool) ->
  Layout.image ->
  state ->
  unit
(** Execute one instruction. No-op when halted. [state] must come from
    {!init} on the same image. *)

val run :
  ?hooks:hooks ->
  ?predict_policy:(pc:int -> id:int -> bool) ->
  ?max_instrs:int ->
  Layout.image ->
  state
(** Run from a fresh state until [Halt] or [max_instrs] (default 100M)
    instructions. [predict_policy] defaults to always-false. *)

val mem_digest : state -> int
(** Order-independent FNV-style digest of the memory image. *)

val reg_digest : state -> int

val arch_digest : state -> int
(** Digest of memory plus the store count — what a correctness oracle
    compares between a program and its transformed version. Registers are
    deliberately excluded: the transformation introduces scratch
    temporaries (and re-executes condition slices in correction blocks),
    so dead register values may differ while all memory effects agree. *)
