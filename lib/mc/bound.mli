(** Difference bounds for DBMs: +∞ or [(value, strict?)], representing
    [x − y <= value] or [x − y < value]. *)

type t =
  | Inf
  | Bound of float * bool  (** (value, strict) *)

val infinity_ : t
val le : float -> t
val lt : float -> t
val zero : t

val compare : t -> t -> int
(** Tighter-than ordering: a strict bound is tighter than a non-strict
    one of the same value; [Inf] is loosest. *)

val add : t -> t -> t

val equal : t -> t -> bool
val pp : t Fmt.t
