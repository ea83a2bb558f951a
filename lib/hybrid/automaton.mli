(** Hybrid automata: the tuple
    [A = (~x(t), V, inv, F, E, g, R, L, syn, Φ0)] of Section II-A, with
    [inv]/[F] folded into {!Location.t}, [g]/[R]/[syn] folded into
    {!Edge.t}, and a deterministic initial state (the paper's pattern
    automata start from "Fall-Back" with all data state variables
    zero). *)

type t = {
  name : string;
  vars : Var.t list;
  locations : Location.t list;
  edges : Edge.t list;
  initial_location : string;
  initial_values : (Var.t * float) list;
      (** variables not listed start at 0. *)
}

val make :
  name:string ->
  vars:Var.t list ->
  locations:Location.t list ->
  edges:Edge.t list ->
  initial_location:string ->
  ?initial_values:(Var.t * float) list ->
  unit ->
  t

val location_names : t -> string list
val find_location : t -> string -> Location.t option
val location_exn : t -> string -> Location.t
val edges_from : t -> string -> Edge.t list

val is_risky : t -> string -> bool
(** Membership in V^risky (Section III's partition). *)

val risky_locations : t -> string list
val initial_valuation : t -> Valuation.t

val listened_roots : t -> Var.Set.t
(** Roots this automaton receives ([?l] or [??l]) anywhere. *)

val emitted_roots : t -> Var.Set.t
(** Roots this automaton sends ([!l]) or raises internally. *)

val all_labels : t -> Label.t list

val validate : t -> (unit, string list) result
(** Structural well-formedness: unique locations, no dangling edges,
    declared variables only (guards, invariants, resets, flows — an
    [Ode]'s read and driven variables included — and initial values),
    initial state exists and satisfies its invariant. *)

val validate_exn : t -> t

val independent : t -> t -> bool
(** Definition 2: disjoint data state variables, locations, and
    synchronization labels. *)

val is_simple : t -> bool
(** Definition 3: one shared invariant, all-zero initial data state that
    satisfies it. *)

val pp : t Fmt.t
