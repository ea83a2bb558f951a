(** Difference bounds for DBMs: a bound is either +∞ or a pair
    [(value, strict?)] representing "x − y ≤ value" (non-strict) or
    "x − y < value" (strict). *)

type t =
  | Inf
  | Bound of float * bool  (** (value, strict) *)

let infinity_ = Inf
let le v = Bound (v, false)
let lt v = Bound (v, true)
let zero = le 0.0

(* Ordering: tighter-than. A strict bound is tighter than a non-strict
   bound of the same value. *)
let compare a b =
  match (a, b) with
  | Inf, Inf -> 0
  | Inf, Bound _ -> 1
  | Bound _, Inf -> -1
  | Bound (v1, s1), Bound (v2, s2) ->
      if Float.abs (v1 -. v2) > 1e-12 then Float.compare v1 v2
      else Bool.compare s2 s1 (* strict (true) is tighter, i.e. smaller *)

let add a b =
  match (a, b) with
  | Inf, _ | _, Inf -> Inf
  | Bound (v1, s1), Bound (v2, s2) -> Bound (v1 +. v2, s1 || s2)

let equal a b = compare a b = 0

let pp ppf = function
  | Inf -> Fmt.string ppf "inf"
  | Bound (v, false) -> Fmt.pf ppf "<=%g" v
  | Bound (v, true) -> Fmt.pf ppf "<%g" v
