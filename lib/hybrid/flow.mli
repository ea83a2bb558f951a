(** Flow maps (Section II-A item 4): the differential equations governing
    data state variables per location.

    Both forms name every variable they touch, so the executor resolves
    them to slots once, when it compiles a location, and its Euler step
    looks up no name: a {!Rates} flow lists its variables, and an {!Ode}
    declares the variables it reads and the ones it drives. *)

type ode = {
  reads : Var.t list;  (** the variables [f] reads, in input order *)
  drives : Var.t list;
      (** the variables [f] gives derivatives for, in output order; a
          variable listed twice gets both derivatives added in turn *)
  f : float -> float array -> float array -> unit;
      (** [f time inputs derivs]: [inputs.(i)] holds the value of the
          [i]-th variable of [reads]; [f] writes the derivative of the
          [j]-th variable of [drives] into [derivs.(j)] (entries it
          leaves alone read 0). Both arrays belong to the caller, so [f]
          must keep neither; an [f] that allocates nothing keeps the
          executor's step loop allocation-free. *)
}

type t =
  | Rates of (Var.t * float) list
      (** constant derivatives; unlisted variables have derivative 0
          (clocks, the ventilator cylinder of Fig. 2). *)
  | Ode of ode
      (** arbitrary vector field, integrated numerically (physical
          dynamics such as SpO2); undriven variables have derivative 0. *)

val clocks : Var.t list -> t
(** All listed variables advance at rate 1. *)

val frozen : t

val derivatives : t -> time:float -> Valuation.t -> (Var.t * float) list
(** The derivative list at a valuation, in [drives] order for an {!Ode}:
    the reference semantics of the executor's compiled flows. *)

val rate_of : t -> time:float -> Valuation.t -> Var.t -> float
val is_constant_rate : t -> bool

val constant_rates : t -> (Var.t * float) list option
(** The rate table of a {!Rates} flow; [None] for {!Ode} flows, whose
    derivatives are computed. *)

val reads : t -> Var.t list
(** The variables the flow's derivatives depend on ([[]] for {!Rates}). *)

val vars : t -> Var.Set.t
(** Every variable the flow names: read, driven, or listed with a
    rate. *)

val combine : t -> t -> t
(** Evolve the (disjoint) variables of both flows simultaneously (used
    by elaboration). Combined with an {!Ode}, the result allocates on
    every call. *)

val pp : t Fmt.t
