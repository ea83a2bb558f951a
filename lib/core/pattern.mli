(** Builders for the lease-based design pattern automata (Section IV-A):
    Supervisor [Asupvsr] (Fig. 3), Initializer [Ainitzr] (Fig. 5a) and
    Participant [Aptcpnt,i] (Fig. 5b), parameterized by the configuration
    constants. See DESIGN.md §6 for the reconstruction decisions taken
    where the paper's figures are sketches. *)

(** {1 Conventional variable and location names} *)

val clock : string
(** Per-automaton location clock ["c"], reset on every edge. *)

val session_clock : string
(** Supervisor session clock ["ls"], started on leaving Fall-Back. *)

val fallback_clock : string
(** Supervisor clock ["fb"], reset on every entry to Fall-Back (guards
    the T^min_fb,0 cool-down). *)

val approval_var : string
(** Supervisor environment variable: ApprovalCondition holds iff >= 0.5.
    Written by a wired sensor coupling (e.g. the oximeter). *)

val participation_var : string
(** Participant environment variable: ParticipationCondition (L0's
    approve/deny decision) holds iff >= 0.5. *)

val fall_back : string
val requesting : string
val entering : string
val risky_core : string
val exiting1 : string
val exiting2 : string

val grant_loc : string -> string
val lease_loc : string -> string
val send_cancel_loc : string -> string
val cancel_loc : string -> string
val send_abort_loc : string -> string
val abort_loc : string -> string

(** {1 Role automata} *)

val supervisor : Params.t -> Pte_hybrid.Automaton.t
(** ξ0. All locations safe (the paper does not partition ξ0's). *)

val initializer_ : ?lease:bool -> Params.t -> Pte_hybrid.Automaton.t
(** ξN. [~lease:false] removes the "Risky Core" expiry transitions — the
    paper's "without Lease" baseline. *)

val participant : ?lease:bool -> Params.t -> index:int -> Pte_hybrid.Automaton.t
(** ξindex (1-based, 1..N−1). Raises [Invalid_argument] out of range. *)

(** {1 Chain builders}

    What {!supervisor} and {!initializer_} are built from, shared with
    {!Multi}. [~at] names every location but "Fall-Back"; the pattern
    uses [Fun.id]. Edges are in declaration order, which the executor
    and the model checker follow. *)

type chain = {
  sweep : Pte_hybrid.Edge.t list;
      (** "Fall-Back" → Send Cancel ξk−1 when the ApprovalCondition fails:
          the precautionary sweep into this chain (none when k = 1). *)
  edges : Pte_hybrid.Edge.t list;
      (** Per ξ1..ξk: its grant, lease and abort edges, then (below ξk)
          its cancel edges. *)
  locations : (Pte_hybrid.Location.t list * Pte_hybrid.Location.t list) list;
      (** Per ξ1..ξk: its grant, lease, send-abort and abort locations,
          and (below ξk) its send-cancel and cancel locations. *)
}

val session : Params.t -> at:(string -> string) -> k:int -> Pte_hybrid.Edge.t * chain
(** Initiator ξk's session (1 ≤ k ≤ N): the request edge out of
    "Fall-Back", and the chain that leases ξ1..ξk−1, approves ξk and
    cancels or aborts back down. *)

val cancel_chain : Params.t -> at:(string -> string) -> k:int -> chain
(** The cancel links of ξ1..ξk−1 alone, with the sweep into them. *)

val supervisor_of :
  Params.t -> locations:Pte_hybrid.Location.t list -> edges:Pte_hybrid.Edge.t list ->
  Pte_hybrid.Automaton.t
(** ξ0 with "Fall-Back", then [locations], and [edges]. *)

val initializer_body :
  ?lease:bool -> Params.t -> index:int -> at:(string -> string) ->
  Pte_hybrid.Location.t list * Pte_hybrid.Edge.t list
(** ξindex's Initializer role: its locations but "Fall-Back", and its
    edges. *)

(** {1 Assembly} *)

val system : ?lease:bool -> Params.t -> Pte_hybrid.System.t
(** The hybrid system H of Theorem 1: ξ0 + ξ1..ξN−1 + ξN. *)

val remotes : Params.t -> string list
(** Remote entity names in PTE order (for network setup). *)
