(** Difference Bound Matrices (Dill 1989): the canonical zone
    representation for timed-automaton reachability. Index 0 is the
    reference clock; entry [(i, j)] bounds [x_i − x_j].

    A zone is one flat unboxed matrix; its entries order exactly as
    {!Bound.compare} orders them, so for finite constants every
    operation yields the same bounds, bit for bit, as the textbook
    matrix of {!Bound.t}. Clock indices outside [0, dim) raise
    [Invalid_argument]. *)

type t

val dim : t -> int
val copy : t -> t

val blit : src:t -> dst:t -> unit
(** Overwrite [dst] with [src] in place; both must have the same
    dimension. *)

val zero : clocks:int -> t
(** Every clock equals 0. *)

val top : clocks:int -> t
(** All clocks unconstrained (>= 0). *)

val get : t -> int -> int -> Bound.t
val is_empty : t -> bool

val canonicalize : t -> unit
(** Floyd–Warshall tightening to canonical form. *)

val constrain : t -> int -> int -> Bound.t -> bool
(** Constrain [x_i − x_j ⋈ bound], restore canonical form incrementally;
    [false] if the zone became empty. *)

val up : t -> unit
(** Time elapse: remove upper bounds on all clocks. *)

val reset : t -> int -> unit
(** Reset clock [i] to 0 (canonical in, canonical out). *)

val free : t -> int -> unit
(** Drop every constraint involving clock [i] — the inactive-clock
    reduction primitive; unlike a reset, a freed clock never
    re-entangles as time elapses. *)

val includes : t -> t -> bool
(** [includes a b]: every valuation of [b] lies in [a] (both canonical,
    non-empty). Reads the clock bounds first and returns at the first
    entry that decides. *)

val equal : t -> t -> bool

val sup : t -> int -> Bound.t
(** Upper bound of a clock over the zone. *)

val inf : t -> int -> float
(** Lower bound of a clock (non-negative). *)

type cmp = Le | Lt | Ge | Gt | Eq

val constrain_atom : t -> clock:int -> cmp:cmp -> const:float -> bool

val normalize_per_clock : t -> k:float array -> unit
(** Per-clock k-extrapolation (Behrmann et al.): bounds beyond each
    clock's largest relevant constant are blurred, guaranteeing
    termination of reachability. Sound over-approximation. *)

val pp : ?names:string array -> t Fmt.t
