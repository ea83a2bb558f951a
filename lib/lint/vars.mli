(** Variable-discipline analysis (codes L030–L033).

    L030 — a variable used in a flow, guard, invariant, or reset is not
    declared in the automaton's variable list. L031 — a variable is read
    (guard/invariant/reset right-hand side, or an ODE's input) but never
    written (initial value, reset target, nonzero constant rate, or an
    ODE's driven variable). L032 — a variable is written by a reset but
    never read anywhere. L033 — a declared variable appears nowhere at
    all. An {!Pte_hybrid.Flow.Ode} declares what it reads and drives, so
    it is checked like any other flow. *)

val check : Pte_hybrid.Automaton.t -> Diagnostic.t list
