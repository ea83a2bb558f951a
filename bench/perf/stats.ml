(** Order statistics of run samples, and a log-bucketed histogram for
    spans that fire too often to keep one by one. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** First and third quartile, by the same rule as Python's
    [statistics.quantiles(xs, n=4)] (method "exclusive"), so the spread
    printed here is the spread an external reader computes from the
    same values. A single sample is its own quartiles. *)
let quartiles xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.quartiles: no samples"
  | [| x |] -> (x, x)
  | a ->
      let ld = Array.length a in
      let m = ld + 1 in
      let cut i =
        let j = Int.max 1 (Int.min (ld - 1) (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((a.(j - 1) *. Float.of_int (4 - delta)) +. (a.(j) *. Float.of_int delta))
        /. 4.0
      in
      (cut 1, cut 3)

(** Nearest-rank [p]-percentile: the smallest sample with at least a
    share [p] of the samples at or below it. *)
let percentile xs p =
  match sorted xs with
  | [||] -> invalid_arg "Stats.percentile: no samples"
  | a ->
      let n = Array.length a in
      let rank = Int.max 1 (Float.to_int (Float.ceil (p *. Float.of_int n))) in
      a.(Int.min n rank - 1)

(** Histogram of non-negative integer samples (nanoseconds). Values
    below 128 get a bucket each; above, every power of two is split
    into 64 buckets, so a reported percentile is within 1/64 of the
    true sample. Recording allocates nothing. *)
module Hist = struct
  type t = { counts : int array; mutable n : int; mutable sum : int }

  let sub_bits = 6
  let linear = 2 lsl sub_bits
  let create () = { counts = Array.make (linear + (64 lsl sub_bits)) 0; n = 0; sum = 0 }

  let rec top_bit v acc = if v <= 1 then acc else top_bit (v lsr 1) (acc + 1)

  let bucket v =
    if v < linear then Int.max 0 v
    else
      let e = top_bit v 0 in
      let shift = e - sub_bits in
      linear + ((e - sub_bits - 1) lsl sub_bits) + ((v lsr shift) - (1 lsl sub_bits))

  (* midpoint of the bucket's value range *)
  let value b =
    if b < linear then Float.of_int b
    else
      let k = b - linear in
      let shift = (k lsr sub_bits) + 1 in
      let lo = ((1 lsl sub_bits) + (k land ((1 lsl sub_bits) - 1))) lsl shift in
      Float.of_int lo +. (Float.of_int ((1 lsl shift) - 1) /. 2.0)

  let add h v =
    let b = bucket v in
    h.counts.(b) <- h.counts.(b) + 1;
    h.n <- h.n + 1;
    h.sum <- h.sum + v

  let merge_into ~dst src =
    Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
    dst.n <- dst.n + src.n;
    dst.sum <- dst.sum + src.sum

  (** {!percentile} of the recorded samples, as the midpoint of the
      bucket that holds it; [0.] when empty. *)
  let percentile h p =
    if h.n = 0 then 0.0
    else
      let rank = Int.max 1 (Float.to_int (Float.ceil (p *. Float.of_int h.n))) in
      let rec go b seen =
        let seen = seen + h.counts.(b) in
        if seen >= rank || b = Array.length h.counts - 1 then value b
        else go (b + 1) seen
      in
      go 0 0
end
