(** Timed-automaton view of a hybrid automaton for zone reachability.

    Supported fragment (which the design-pattern automata inhabit):
    every variable is a clock (rate 1 everywhere) or an environment
    variable (rate 0). Guards over environment variables are erased —
    the edge becomes a may-edge (sound for safety). Eager edges with
    pure clock lower-bound guards are urgent and induce location
    invariants; empty-guard eager edges make their location zero-dwell.
    Receives on roots nobody sends are environment stimuli (may-edges). *)

open Pte_hybrid

type clock_atom = { clock : int; cmp : Dbm.cmp; const : float }

type edge = {
  src : int;
  dst : int;
  guard : clock_atom list;
  resets : int list;
  label : Label.t option;
  may : bool;  (** fires spontaneously at any enabled moment *)
  sync : string option;
      (** [Some root]: fires only synchronized with that send *)
}

type location = {
  name : string;
  risky : bool;
  urgent : bool;
  invariant : clock_atom list;
}

type t = {
  name : string;
  locations : location array;
  edges : edge list array;
  initial : int;
  clock_of_var : (string * int) list;
}

exception Unsupported of string

val translate :
  Automaton.t -> alloc:(string -> int) -> is_system_root:(string -> bool) -> t
(** [alloc] assigns global clock indices. Raises {!Unsupported} outside
    the timed fragment (ODE flows, mixed rates, compound urgent guards,
    non-zero resets) and on a non-finite constant in a clock guard or
    invariant. *)

module Int_set : Set.S with type elt = int

val active_clocks : t -> Int_set.t array
(** Per-location active clocks (read before their next reset), by
    backward fixpoint — the inactive-clock reduction used by
    {!Reach}. *)

val accumulate_max_constants : t -> k:float array -> unit
(** Grow [k] (indexed by global clock) to cover this automaton's guard
    and invariant constants (per-clock extrapolation bounds). *)
