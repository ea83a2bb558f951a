(** Extension: multiple Initializers.

    The paper fixes a single Initializer ξN "without loss of
    generality"; this module implements the deferred generalization: a
    designated subset of remote entities may initiate. A session by ξk
    leases the prefix ξ1..ξk−1 and approves ξk; entities above ξk stay
    safe, so their PTE pairs hold vacuously. Sessions are serialized by
    the Supervisor; every session is lease-protected exactly as in the
    single-Initializer pattern, so Theorem 1's argument applies per
    session once {!check} passes (full-chain c1–c7 plus the c3 instance
    of every initiator). *)

open Pte_hybrid

type config = {
  params : Params.t;
  initiators : int list;
      (** 1-based entity indices, strictly increasing; must include N
          (the top entity has no participant role). *)
}

val validate_config : config -> (unit, string) result

val check : config -> (Constraints.outcome list, string) result
(** Full-chain c1–c7 followed by one c3 instance per initiator. *)

val satisfies : config -> bool

val entity : ?lease:bool -> config -> index:int -> Automaton.t
(** Dual-role automaton: the Participant automaton (index < N) plus, for
    designated initiators, the Initializer of {!Pattern.initializer_body}
    (locations suffixed ["(init)"]) glued at "Fall-Back". ξN is
    Initializer-only. *)

val supervisor : config -> Automaton.t
(** One {!Pattern.session} per initiator, plus the Fall-Back recovery
    sweep on a {!Pattern.cancel_chain} of its own. *)

val system : ?lease:bool -> config -> System.t

val stimuli : config -> (string * string * string) list
(** Per initiator: (entity name, request stimulus root, cancel stimulus
    root) — for wiring scenarios. *)

val init_suffix : string -> string
(** The names of a dual-role entity's Initializer locations. *)
