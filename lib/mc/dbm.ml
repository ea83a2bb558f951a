(** Difference Bound Matrices: the canonical zone representation for
    timed-automaton reachability (Dill 1989). Index 0 is the reference
    clock (constant 0); entry [(i, j)] bounds [x_i − x_j].

    This gives the repository an {e exact} analysis of the design-pattern
    automata, complementing the numeric simulator: the pattern's clocks
    all have rate 1, its guards and invariants are clock constraints, so
    zone reachability decides PTE safety for a given configuration under
    truly arbitrary message loss (Theorem 1's quantifier).

    A zone is one flat unboxed row-major matrix (DESIGN §14). Entries are
    compared by [tighter], which orders them exactly as {!Bound.compare}
    does, and every operation keeps the loop order and float additions
    of the boxed algorithm, so zones are bit-identical to it for finite
    constants. Only {!copy}, the constructors and the {!Bound.t} views
    allocate. *)

type t = {
  dim : int;  (** number of clocks + 1 *)
  v : float array;  (** entry [(i, j)] at [i * dim + j]; [infinity] is ∞ *)
  s : Bytes.t;  (** strictness: ['\001'] for [<]; ∞ is stored ['\000'] *)
}

let dim t = t.dim

let copy t = { dim = t.dim; v = Array.copy t.v; s = Bytes.copy t.s }

let blit ~src ~dst =
  if src.dim <> dst.dim then invalid_arg "Dbm.blit: dimensions differ";
  Array.blit src.v 0 dst.v 0 (Array.length src.v);
  Bytes.blit src.s 0 dst.s 0 (Bytes.length src.s)

let index t i j =
  if i < 0 || i >= t.dim || j < 0 || j >= t.dim then
    invalid_arg "Dbm: clock index out of range";
  (i * t.dim) + j

let[@inline] strict t idx = Char.code (Bytes.unsafe_get t.s idx)

let[@inline] set t idx v s =
  Array.unsafe_set t.v idx v;
  Bytes.unsafe_set t.s idx (Char.unsafe_chr s)

let[@inline] copy_entry t ~src ~dst =
  set t dst (Array.unsafe_get t.v src) (strict t src)

(* [(v, s)] is strictly tighter than [(v', s')]: [Bound.compare] < 0.
   Values within 1e-12 tie, and then a strict bound is the tighter one;
   two ∞ tie too (|∞ − ∞| is NaN) and are both stored non-strict. The
   strictness flags are typed [int] so the tie is an integer compare:
   left untyped, [s > s'] is OCaml's polymorphic compare, a C call per
   tie (DESIGN §14). *)
let[@inline] tighter v (s : int) v' (s' : int) =
  if Float.abs (v -. v') > 1e-12 then v < v' else s > s'

(** The zone where every clock equals 0. *)
let zero ~clocks =
  let dim = clocks + 1 in
  { dim; v = Array.make (dim * dim) 0.0; s = Bytes.make (dim * dim) '\000' }

(** The unconstrained zone (all clocks >= 0). *)
let top ~clocks =
  let t = zero ~clocks in
  for i = 1 to t.dim - 1 do
    for j = 0 to t.dim - 1 do
      if i <> j then t.v.((i * t.dim) + j) <- infinity
    done
  done;
  t

let get t i j =
  let idx = index t i j in
  let v = t.v.(idx) in
  if v = infinity then Bound.Inf else Bound.Bound (v, strict t idx = 1)

let is_empty t =
  let step = t.dim + 1 and n = t.dim * t.dim in
  let idx = ref 0 in
  while
    !idx < n && not (tighter (Array.unsafe_get t.v !idx) (strict t !idx) 0.0 0)
  do
    idx := !idx + step
  done;
  !idx < n

(** Floyd–Warshall tightening to canonical form. *)
let canonicalize t =
  let dim = t.dim and v = t.v in
  for k = 0 to dim - 1 do
    for i = 0 to dim - 1 do
      let ik = (i * dim) + k in
      (* nothing passes through an ∞ (i, k), which stays ∞ meanwhile *)
      if Array.unsafe_get v ik < infinity then
        for j = 0 to dim - 1 do
          let ij = (i * dim) + j and kj = (k * dim) + j in
          let via = Array.unsafe_get v ik +. Array.unsafe_get v kj in
          if via < infinity then begin
            let sv = strict t ik lor strict t kj in
            if tighter via sv (Array.unsafe_get v ij) (strict t ij) then
              set t ij via sv
          end
        done
    done
  done

(* [x_i − x_j ⋈ (bv, bs)], [bv] = ±[c] finite; see {!constrain}. The
   negation happens here so that no caller boxes a float. *)
let constrain_raw t i j ~neg c bs =
  let bv = if neg then -.c else c in
  let ij = index t i j in
  if tighter bv bs t.v.(ij) (strict t ij) then begin
    set t ij bv bs;
    (* incremental canonicalization through the updated edge *)
    let dim = t.dim and v = t.v in
    for a = 0 to dim - 1 do
      let ai = (a * dim) + i in
      if Array.unsafe_get v ai < infinity then
        for b = 0 to dim - 1 do
          let jb = (j * dim) + b and ab = (a * dim) + b in
          let via = Array.unsafe_get v ai +. bv +. Array.unsafe_get v jb in
          if via < infinity then begin
            let sv = strict t ai lor bs lor strict t jb in
            if tighter via sv (Array.unsafe_get v ab) (strict t ab) then
              set t ab via sv
          end
        done
    done
  end;
  not (is_empty t)

(** Constrain [x_i − x_j ⋈ bound] and restore canonical form
    incrementally. Returns [false] if the zone became empty. *)
let constrain t i j = function
  | Bound.Bound (v, s) when v < infinity ->
      constrain_raw t i j ~neg:false v (Bool.to_int s)
  | _ -> not (is_empty t)

(** Time elapse ("up"): remove upper bounds on all clocks. Preserves
    canonical form. *)
let up t =
  for i = 1 to t.dim - 1 do
    set t (i * t.dim) infinity 0
  done

(** Reset clock [i] to 0. Requires canonical input; preserves it. *)
let reset t i =
  let dim = t.dim and ii = index t i i in
  for j = 0 to dim - 1 do
    if j <> i then begin
      copy_entry t ~src:j ~dst:((i * dim) + j);
      copy_entry t ~src:(j * dim) ~dst:((j * dim) + i)
    end
  done;
  set t ii 0.0 0

(* entry [dst] := entry [a] + entry [b] (∞ absorbs, strictness ORs) *)
let add_into t ~dst a b =
  let via = Array.unsafe_get t.v a +. Array.unsafe_get t.v b in
  if via < infinity then set t dst via (strict t a lor strict t b)
  else set t dst infinity 0

(** Free clock [i]: drop every constraint involving it (the clock becomes
    an arbitrary non-negative value, unrelated to the others). This is
    the inactive-clock reduction primitive — unlike a reset, a freed
    clock does not re-entangle with the others as time elapses. Preserves
    canonical form. *)
let free t i =
  let dim = t.dim and i0 = index t i 0 in
  for j = 0 to dim - 1 do
    if j <> i then begin
      if j = 0 then set t i0 infinity 0 else copy_entry t ~src:i0 ~dst:(i0 + j);
      copy_entry t ~src:(j * dim) ~dst:((j * dim) + i)
    end
  done;
  (* x_i >= 0 and unbounded above; differences via 0 only *)
  set t i 0.0 0;
  set t i0 infinity 0;
  for j = 1 to dim - 1 do
    if j <> i then begin
      add_into t ~dst:(i0 + j) i0 j;
      add_into t ~dst:((j * dim) + i) (j * dim) i
    end
  done

(* entry [idx] of [a] is strictly tighter than [b]'s; top level, so
   that the scans below allocate no closure *)
let[@inline] entry_tighter a b idx =
  tighter (Array.unsafe_get a.v idx) (strict a idx) (Array.unsafe_get b.v idx)
    (strict b idx)

(** [includes a b]: every valuation of [b] lies in [a] (assumes both
    canonical and non-empty), i.e. no entry of [a] is tighter than
    [b]'s. The answer is a conjunction over all entries, so the scan
    order is free: the clock bounds [(0, i)] and [(i, 0)] come first,
    since they decide most calls, then [(0, 0)] and the differences.
    Stops at the first entry of [a] tighter than [b]'s. *)
let includes a b =
  assert (a.dim = b.dim);
  let dim = a.dim in
  let i = ref 1 in
  while
    !i < dim
    && (not (entry_tighter a b !i))
    && not (entry_tighter a b (!i * dim))
  do
    incr i
  done;
  let ok = ref (!i = dim && not (entry_tighter a b 0)) in
  let r = ref 1 in
  while !ok && !r < dim do
    let row = !r * dim in
    let c = ref 1 in
    while !ok && !c < dim do
      if entry_tighter a b (row + !c) then ok := false;
      incr c
    done;
    incr r
  done;
  !ok

(* entries tie iff neither is tighter, as [Bound.equal] *)
let equal a b = a.dim = b.dim && includes a b && includes b a

(** Upper bound of clock [i] over the zone ([Inf] if unbounded). *)
let sup t i = get t i 0

(** Lower bound of clock [i] (as a non-negative float). *)
let inf t i =
  let v = t.v.(index t 0 i) in
  if v = infinity then 0.0 (* cannot happen for clocks *) else -.v

type cmp = Le | Lt | Ge | Gt | Eq

(** Constrain by a clock atom [x_i ⋈ c]. *)
let constrain_atom t ~clock ~cmp ~const =
  match cmp with
  | Le -> constrain_raw t clock 0 ~neg:false const 0
  | Lt -> constrain_raw t clock 0 ~neg:false const 1
  | Ge -> constrain_raw t 0 clock ~neg:true const 0
  | Gt -> constrain_raw t 0 clock ~neg:true const 1
  | Eq ->
      constrain_raw t clock 0 ~neg:false const 0
      && constrain_raw t 0 clock ~neg:true const 0

(** Per-clock k-extrapolation (Behrmann et al.): entry [(i, j)] bounds
    [x_i − x_j]; its upper bound is irrelevant beyond [k.(i)] and its
    lower bound beyond [−k.(j)], where [k.(c)] is the largest constant
    clock [c] is ever compared against. Much coarser than a single
    global constant, which is what makes reachability converge on
    protocol automata with long-lived observer clocks. [k.(0)] is
    ignored (the reference row/column keeps clocks non-negative). *)
let normalize_per_clock t ~k =
  let dim = t.dim in
  let changed = ref false in
  for i = 0 to dim - 1 do
    for j = 0 to dim - 1 do
      let idx = (i * dim) + j in
      let v = Array.unsafe_get t.v idx in
      if i <> j && v < infinity then
        if i > 0 && v > k.(i) then begin
          set t idx infinity 0;
          changed := true
        end
        else if j > 0 && v < -.k.(j) then begin
          set t idx (-.k.(j)) 1;
          changed := true
        end
    done
  done;
  if !changed then canonicalize t

let pp ?names ppf t =
  let name i =
    if i = 0 then "0"
    else
      match names with
      | Some ns when i - 1 < Array.length ns -> ns.(i - 1)
      | _ -> Printf.sprintf "x%d" i
  in
  for i = 0 to t.dim - 1 do
    for j = 0 to t.dim - 1 do
      if i <> j && t.v.((i * t.dim) + j) < infinity then
        Fmt.pf ppf "%s-%s%a; " (name i) (name j) Bound.pp (get t i j)
    done
  done
