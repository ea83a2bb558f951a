(** Slot kernels: guards, resets and flows compiled to arrays over one
    automaton's declared variables.

    A valuation becomes a [float array] indexed by {e slot}: the position
    of a variable in the automaton's [vars] list, duplicates dropped.
    Each compiled operation performs the same IEEE-754 operations in the
    same order as its list counterpart, so its results are bit-identical
    to {!Guard.holds}, {!Reset.apply}, {!Flow.derivatives} with
    {!Valuation.advance}, and {!Valuation.interpolate} on a valuation
    over exactly those variables, and evaluating them allocates nothing
    (an ODE step allocates only what its function does). The executor
    builds them per location, the first time an automaton enters it, so
    each executor owns its kernels and their scratch arrays. *)

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

type watch
(** The atoms of some guards, grouped by the slot each reads, with the
    slopes a {!rates} table adds to those slots. It holds a scratch
    array, so it belongs to one executor. *)

val watch : guard list -> rates -> watch

val next_flip : watch -> float array -> float -> int -> int
(** [next_flip w values span horizon] is the least [k] in [1, horizon]
    such that some atom answers differently on the valuation [replay]
    makes of [values] in [k] steps than on [values]. It replays each
    watched slot with the additions of {!step} and judges each atom
    with the comparison of {!holds}. It is [horizon + 1] when no atom
    flips within [horizon] steps, and [max_int] when none ever can: no
    slope moves a watched slot. *)

val disturbs : watch -> float array -> int -> float -> bool
(** [disturbs w values slot x]: whether writing [x] into [slot] can
    change the answer of {!next_flip} on [values]: the slot is watched
    and a slope moves it, or some atom answers differently on [x] than
    on the value there now. *)

type ode
(** The slots a {!Flow.ode} reads and drives, and the scratch arrays its
    function reads and fills. *)

type flow = Rates of rates | Ode of ode

val flow : layout -> Flow.t -> flow

val advance : flow -> time:float -> float array -> float -> unit
(** [advance flow ~time values span] is one Euler step of [span]
    seconds from [time]: {!step} for {!Rates}; for {!Ode}, every
    derivative is computed from the values before the step, then
    [derivative *. span] is added in [drives] order. *)

val interpolate :
  from:float array -> target:float array -> float -> float array -> unit
(** [interpolate ~from ~target alpha into] writes
    [from + alpha * (target - from)] slot by slot, for the slots of
    [from]. *)
