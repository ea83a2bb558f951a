(** Zone-based reachability over the product of the pattern's timed
    automata, with nondeterministic message loss and PTE observers.

    Communication: a fired [!root] either synchronizes with an enabled
    matching receive edge in the same instant or — for [??root]
    receivers, or when no matching edge is enabled — is lost; every
    combination is explored, realizing the paper's "events can be
    arbitrarily lost". Environment-dependent guards are erased (sound
    over-approximation); network delay is abstracted to zero.

    An [exhausted] result with no violations is a machine-checked proof
    of the PTE safety rules for the given configuration. *)

type violation_kind =
  | Rule1_dwell of { entity : string; bound : float }
  | P1_enter_safeguard of { outer : string; inner : string; required : float }
  | P2_not_embedded of { outer : string; inner : string }
  | P3_exit_safeguard of { outer : string; inner : string; required : float }

type violation = { kind : violation_kind; state : int }

type config = { max_states : int; stop_at_first : bool }

val default_config : config
(** 2M states, collect all violations. *)

type result = {
  violations : violation list;
  states : int;
  transitions : int;
  exhausted : bool;
      (** [true] when the full state space was covered: the search
          drained its queue, stopped neither by the state budget nor by
          [stop_at_first]. *)
  trace : int -> string list;
      (** action trace from the initial state to a violation's state. *)
  discrete_states : int;  (** distinct (location vector, flags) keys *)
  max_zones_per_key : int;
}

val ok : result -> bool
(** Exhausted and violation-free. *)

val pp_violation_kind : violation_kind Fmt.t

val check :
  ?config:config ->
  system:Pte_hybrid.System.t ->
  spec:Pte_core.Rules.t ->
  unit ->
  result
(** Requires every member automaton to be in the timed fragment (clock
    and environment variables only); raises {!Ta.Unsupported}
    otherwise. A dwell bound of [infinity] leaves Rule 1 unchecked for
    its entity; a NaN one raises [Invalid_argument]. *)

val check_pattern :
  ?lease:bool ->
  ?config:config ->
  ?dwell_bound:float ->
  Pte_core.Params.t ->
  result
(** Model-check the (un-elaborated) lease pattern for a configuration,
    against the spec it induces (or an explicit Rule 1 [dwell_bound]). *)
