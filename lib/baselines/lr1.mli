(** Canonical LR(1) (Knuth 1965) — the exact but expensive baseline,
    derived from the LR(0) automaton.

    A canonical LR(1) state is a pair [(q, las)]: an LR(0) state [q]
    and one look-ahead set per kernel item of [q]. Every look-ahead set
    of [q]'s closure is a linear function of [las] — spontaneous
    terminals plus the kernel sets that propagate to it — so each LR(0)
    state's closure is solved once, over word-parallel bitsets, and the
    LR(1) automaton is then unfolded along the LR(0) transitions,
    interning successors by [(target, las)] (DESIGN.md §18).

    LALR look-ahead sets are recovered by {!merged_lookaheads}, which
    unions the reductions of all LR(1) states over the same LR(0)
    state. The paper proves its sets equal these; the cross-check is in
    the test suite, and the cost difference is bench T4. *)

type t

val of_lr0 : ?analysis:Analysis.t -> Lalr_automaton.Lr0.t -> t
(** Unfolds the canonical LR(1) automaton of the LR(0) automaton's
    grammar. [analysis] (FIRST/nullable) is computed when omitted.
    Runs as budget stage ["lr1"]: one {!Lalr_guard.Budget.count_state}
    per LR(1) state, so a state cap bounds the unfolding. *)

val build : Grammar.t -> t
(** [build g] is [of_lr0 (Lr0.build g)]: the whole canonical
    construction, LR(0) machine included. *)

val grammar : t -> Grammar.t

val n_states : t -> int

val state_core : t -> int -> int array
(** The kernel of the LR(0) state underlying an LR(1) state: its LR(0)
    item set (sorted, in the numbering of the automaton's
    {!Lalr_automaton.Item.table}). *)

val reduce_actions : t -> int -> (int * Lalr_sets.Bitset.t) list
(** [(production, look-ahead set)] for each reduction of the state,
    production ids ascending; production 0 (accept) excluded. *)

val is_lr1 : t -> bool
(** The grammar is LR(1): no state has a shift/reduce or reduce/reduce
    conflict. *)

val merged_lookaheads : t -> (int * int, Lalr_sets.Bitset.t) Hashtbl.t
(** Merge by LR(0) core: maps [(lr0_state, production)] to the LALR
    look-ahead set, states numbered as in the automaton [t] was
    unfolded from — and so as in any {!Lalr_automaton.Lr0.build} of
    the same grammar, which is deterministic. Every reduction pair of
    the LR(0) automaton is a key. *)
