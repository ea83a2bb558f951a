(** Slot kernels: guards, resets and constant-rate flows compiled to
    arrays over one automaton's declared variables.

    A valuation becomes a [float array] indexed by {e slot}: the position
    of a variable in the automaton's [vars] list, duplicates dropped.
    Each compiled operation performs the same IEEE-754 operations in the
    same order as its list counterpart, so its results are bit-identical
    to {!Guard.holds}, {!Reset.apply}, {!Valuation.advance} and
    {!Valuation.interpolate} on a valuation over exactly those
    variables, and evaluating them allocates nothing. The executor
    builds them per location, the first time an automaton enters it. *)

type layout
(** The slot of each declared variable. *)

val layout : Var.t list -> layout
(** Slots in order of first occurrence. *)

val size : layout -> int

val find : layout -> Var.t -> int
(** The variable's slot, or [-1] when it is not declared. *)

val load : layout -> Valuation.t -> float array
(** The declared variables' values, by slot (absent ones read 0). *)

val store : layout -> float array -> Valuation.t
(** The valuation over exactly the declared variables. *)

(** Each compiler raises [Invalid_argument] on a variable the layout
    does not declare. *)

type guard

val guard : layout -> Guard.t -> guard
val is_true : guard -> bool
(** No atoms: holds everywhere. *)

val holds : guard -> float array -> bool

type reset

val reset : layout -> Reset.t -> reset

val apply : reset -> float array -> unit
(** In place, simultaneously: every right-hand side reads the values
    before the transition, and a variable assigned twice keeps the last
    assignment. *)

type rates

val rates : layout -> (Var.t * float) list -> rates

val step : rates -> float array -> float -> unit
(** [step r values span] adds [rate *. span] to each listed variable, in
    list order (a variable listed twice gets both additions). *)

val replay : rates -> float array -> float -> int -> unit
(** [replay r values span k] is [k] steps; nothing for a non-positive
    [span]. *)

val interpolate :
  from:float array -> target:float array -> float -> float array -> unit
(** [interpolate ~from ~target alpha into] writes
    [from + alpha * (target - from)] slot by slot, for the slots of
    [from]. *)
