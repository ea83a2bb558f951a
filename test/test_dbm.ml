(* Difference Bound Matrices: the zone algebra under the model checker. *)

open Pte_mc

let test_bound_ordering () =
  Alcotest.(check bool) "strict tighter" true
    (Bound.compare (Bound.lt 5.0) (Bound.le 5.0) < 0);
  Alcotest.(check bool) "smaller tighter" true
    (Bound.compare (Bound.le 3.0) (Bound.le 5.0) < 0);
  Alcotest.(check bool) "inf loosest" true
    (Bound.compare Bound.infinity_ (Bound.le 1e9) > 0)

let test_bound_add () =
  Alcotest.(check bool) "le+le" true
    (Bound.equal (Bound.add (Bound.le 2.0) (Bound.le 3.0)) (Bound.le 5.0));
  Alcotest.(check bool) "le+lt strict" true
    (Bound.equal (Bound.add (Bound.le 2.0) (Bound.lt 3.0)) (Bound.lt 5.0));
  Alcotest.(check bool) "inf absorbs" true
    (Bound.equal (Bound.add Bound.infinity_ (Bound.le 1.0)) Bound.infinity_)

let test_strict_tie () =
  (* x <= 3 and x >= 3 meet in one point; x < 3 and x >= 3 do not *)
  let pinned cmp =
    let z = Dbm.zero ~clocks:1 in
    Dbm.up z;
    Dbm.constrain_atom z ~clock:1 ~cmp ~const:3.0
    && Dbm.constrain_atom z ~clock:1 ~cmp:Dbm.Ge ~const:3.0
  in
  Alcotest.(check bool) "x<=3 & x>=3 ok" true (pinned Dbm.Le);
  Alcotest.(check bool) "x<3 & x>=3 empty" false (pinned Dbm.Lt);
  (* x2 >= x1 + 0.2 >= 0.1 + 0.2 = 0.30000000000000004, yet x2 <= 0.3
     is a point, not empty: bounds within 1e-12 tie *)
  let z = Dbm.top ~clocks:2 in
  Alcotest.(check bool) "tolerant tie ok" true
    (Dbm.constrain_atom z ~clock:1 ~cmp:Dbm.Ge ~const:0.1
    && Dbm.constrain z 1 2 (Bound.le (-0.2))
    && Dbm.constrain_atom z ~clock:2 ~cmp:Dbm.Le ~const:0.3)

let test_zero_zone () =
  let z = Dbm.zero ~clocks:3 in
  Alcotest.(check bool) "not empty" false (Dbm.is_empty z);
  for i = 1 to 3 do
    Alcotest.(check bool) "sup 0" true (Bound.equal (Dbm.sup z i) (Bound.le 0.0));
    Alcotest.(check (float 0.0)) "inf 0" 0.0 (Dbm.inf z i)
  done

let test_up_and_constrain () =
  let z = Dbm.zero ~clocks:2 in
  Dbm.up z;
  Alcotest.(check bool) "unbounded above" true
    (Bound.equal (Dbm.sup z 1) Bound.infinity_);
  (* clocks advance together: x1 - x2 stays 0 *)
  Alcotest.(check bool) "diff preserved" true
    (Bound.equal (Dbm.get z 1 2) (Bound.le 0.0));
  (* constrain x1 <= 5: x2 also <= 5 via the diff *)
  Alcotest.(check bool) "still nonempty" true
    (Dbm.constrain_atom z ~clock:1 ~cmp:Dbm.Le ~const:5.0);
  Alcotest.(check bool) "x2 bounded too" true
    (Bound.compare (Dbm.sup z 2) (Bound.le 5.0) <= 0)

let test_empty_after_contradiction () =
  let z = Dbm.zero ~clocks:1 in
  Dbm.up z;
  Alcotest.(check bool) "x >= 5 fine" true
    (Dbm.constrain_atom z ~clock:1 ~cmp:Dbm.Ge ~const:5.0);
  Alcotest.(check bool) "x < 3 contradicts" false
    (Dbm.constrain_atom z ~clock:1 ~cmp:Dbm.Lt ~const:3.0)

let test_reset () =
  let z = Dbm.zero ~clocks:2 in
  Dbm.up z;
  ignore (Dbm.constrain_atom z ~clock:1 ~cmp:Dbm.Ge ~const:4.0);
  ignore (Dbm.constrain_atom z ~clock:1 ~cmp:Dbm.Le ~const:6.0);
  Dbm.reset z 2;
  Alcotest.(check bool) "x2 = 0" true (Bound.equal (Dbm.sup z 2) (Bound.le 0.0));
  (* x1 retains its bounds *)
  Alcotest.(check bool) "x1 kept" true
    (Bound.equal (Dbm.sup z 1) (Bound.le 6.0) && Dbm.inf z 1 = 4.0);
  (* and the diff x1 - x2 now mirrors x1 *)
  Alcotest.(check bool) "diff x1-x2" true
    (Bound.equal (Dbm.get z 1 2) (Bound.le 6.0))

let test_free () =
  let z = Dbm.zero ~clocks:2 in
  Dbm.up z;
  ignore (Dbm.constrain_atom z ~clock:1 ~cmp:Dbm.Le ~const:3.0);
  ignore (Dbm.constrain_atom z ~clock:2 ~cmp:Dbm.Le ~const:3.0);
  Dbm.free z 2;
  Alcotest.(check bool) "x2 unbounded" true
    (Bound.equal (Dbm.sup z 2) Bound.infinity_);
  Alcotest.(check (float 0.0)) "x2 >= 0" 0.0 (Dbm.inf z 2);
  Alcotest.(check bool) "x1 untouched" true
    (Bound.equal (Dbm.sup z 1) (Bound.le 3.0));
  Alcotest.(check bool) "no stale diff" true
    (Bound.equal (Dbm.get z 2 1) Bound.infinity_);
  Alcotest.(check bool) "still canonical-consistent" false (Dbm.is_empty z)

let test_includes () =
  let big = Dbm.zero ~clocks:1 in
  Dbm.up big;
  ignore (Dbm.constrain_atom big ~clock:1 ~cmp:Dbm.Le ~const:10.0);
  let small = Dbm.copy big in
  ignore (Dbm.constrain_atom small ~clock:1 ~cmp:Dbm.Le ~const:5.0);
  Alcotest.(check bool) "big includes small" true (Dbm.includes big small);
  Alcotest.(check bool) "small excludes big" false (Dbm.includes small big);
  Alcotest.(check bool) "reflexive" true (Dbm.includes big big)

let test_eq_atom () =
  let z = Dbm.zero ~clocks:1 in
  Dbm.up z;
  Alcotest.(check bool) "pin to 7" true
    (Dbm.constrain_atom z ~clock:1 ~cmp:Dbm.Eq ~const:7.0);
  Alcotest.(check bool) "sup 7" true (Bound.equal (Dbm.sup z 1) (Bound.le 7.0));
  Alcotest.(check (float 0.0)) "inf 7" 7.0 (Dbm.inf z 1)

let test_per_clock_normalization () =
  let z = Dbm.zero ~clocks:1 in
  Dbm.up z;
  ignore (Dbm.constrain_atom z ~clock:1 ~cmp:Dbm.Le ~const:100.0);
  ignore (Dbm.constrain_atom z ~clock:1 ~cmp:Dbm.Ge ~const:90.0);
  (* clock 1's relevant constants stop at 5: its bounds must blur *)
  Dbm.normalize_per_clock z ~k:[| 0.0; 5.0 |];
  Alcotest.(check bool) "upper blurred" true
    (Bound.equal (Dbm.sup z 1) Bound.infinity_);
  Alcotest.(check bool) "lower blurred to >5" true (Dbm.inf z 1 <= 5.0 +. 1e-9);
  (* the blurred zone contains the original *)
  let original = Dbm.zero ~clocks:1 in
  Dbm.up original;
  ignore (Dbm.constrain_atom original ~clock:1 ~cmp:Dbm.Le ~const:100.0);
  ignore (Dbm.constrain_atom original ~clock:1 ~cmp:Dbm.Ge ~const:90.0);
  Alcotest.(check bool) "over-approximation" true (Dbm.includes z original)

let prop_canonical_idempotent =
  (* canonicalize twice = canonicalize once, on randomly constrained zones *)
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 6)
        (triple (int_range 1 3) (int_range 0 1) (float_range 0.0 20.0)))
  in
  QCheck.Test.make ~name:"canonicalization idempotent" ~count:200 (QCheck.make gen)
    (fun atoms ->
      let z = Dbm.zero ~clocks:3 in
      Dbm.up z;
      let alive =
        List.for_all
          (fun (clock, dir, const) ->
            let cmp = if dir = 0 then Dbm.Le else Dbm.Ge in
            Dbm.constrain_atom z ~clock ~cmp ~const)
          atoms
      in
      if not alive then true
      else begin
        let once = Dbm.copy z in
        Dbm.canonicalize once;
        let twice = Dbm.copy once in
        Dbm.canonicalize twice;
        Dbm.equal once twice
      end)

let prop_constrain_shrinks =
  QCheck.Test.make ~name:"constraining never grows a zone" ~count:200
    QCheck.(pair (QCheck.make (QCheck.Gen.int_range 1 3)) (float_range 0.0 20.0))
    (fun (clock, const) ->
      let z = Dbm.zero ~clocks:3 in
      Dbm.up z;
      let before = Dbm.copy z in
      if Dbm.constrain_atom z ~clock ~cmp:Dbm.Le ~const then
        Dbm.includes before z
      else true)

(* Differential property: the flat DBM against the boxed reference
   matrix of [Dbm_ref], over random operation sequences. Constants mix
   integers, halves and non-dyadic values, so sums along different
   paths tie within the 1e-12 tolerance without being equal. *)
type op =
  | Atom of int * Dbm.cmp * float
  | Diff of int * int * bool * float  (** x_i − x_j < c (strict) or <= c *)
  | Up
  | Reset of int
  | Free of int
  | Canon
  | Norm of float array

let cmp_name : Dbm.cmp -> string = function
  | Le -> "<=" | Lt -> "<" | Ge -> ">=" | Gt -> ">" | Eq -> "="

let pp_op = function
  | Atom (c, cmp, k) -> Printf.sprintf "x%d %s %h" c (cmp_name cmp) k
  | Diff (i, j, strict, k) ->
      Printf.sprintf "x%d - x%d %s %h" i j (if strict then "<" else "<=") k
  | Up -> "up"
  | Reset c -> Printf.sprintf "reset x%d" c
  | Free c -> Printf.sprintf "free x%d" c
  | Canon -> "canonicalize"
  | Norm k ->
      "normalize k="
      ^ String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") k))

let gen_const =
  QCheck.Gen.(
    oneof
      [ map float_of_int (int_range 0 12);
        map (fun h -> float_of_int h /. 2.0) (int_range 0 24);
        map2
          (fun n c -> float_of_int n *. c)
          (int_range 1 4)
          (oneofl [ 0.1; 0.2; 0.3; 1.0 /. 3.0; 2.0 /. 3.0; 2.7 ]) ])

let gen_op clocks =
  let open QCheck.Gen in
  let clock = int_range 1 clocks in
  frequency
    [ ( 6,
        map3
          (fun c cmp k -> Atom (c, cmp, k))
          clock
          (oneofl Dbm.[ Le; Lt; Ge; Gt; Eq ])
          gen_const );
      ( 3,
        clock >>= fun i ->
        int_range 0 clocks >>= fun j ->
        map2 (fun strict k -> Diff (i, j, strict, k -. 3.0)) bool gen_const );
      (3, return Up);
      (2, map (fun c -> Reset c) clock);
      (2, map (fun c -> Free c) clock);
      (1, return Canon);
      ( 2,
        map
          (fun ks -> Norm (Array.of_list (0.0 :: ks)))
          (list_repeat clocks gen_const) ) ]

type case = { clocks : int; from_top : bool; ops : op list; other : op list }

let gen_case =
  let open QCheck.Gen in
  int_range 1 6 >>= fun clocks ->
  map3
    (fun from_top ops other -> { clocks; from_top; ops; other })
    bool
    (list_size (int_range 1 30) (gen_op clocks))
    (list_size (int_range 0 15) (gen_op clocks))

let print_case c =
  Printf.sprintf "%d clocks from %s: [%s] vs [%s]" c.clocks
    (if c.from_top then "top" else "zero")
    (String.concat "; " (List.map pp_op c.ops))
    (String.concat "; " (List.map pp_op c.other))

(* apply [op] to both; the two return values must agree *)
let apply_both flat boxed op =
  let agree a b =
    if a <> b then QCheck.Test.fail_report "return values differ"
  in
  match op with
  | Atom (clock, cmp, const) ->
      agree
        (Dbm.constrain_atom flat ~clock ~cmp ~const)
        (Dbm_ref.constrain_atom boxed ~clock ~cmp ~const)
  | Diff (i, j, strict, c) ->
      let b = if strict then Bound.lt c else Bound.le c in
      agree (Dbm.constrain flat i j b) (Dbm_ref.constrain boxed i j b)
  | Up -> Dbm.up flat; Dbm_ref.up boxed
  | Reset c -> Dbm.reset flat c; Dbm_ref.reset boxed c
  | Free c -> Dbm.free flat c; Dbm_ref.free boxed c
  | Canon -> Dbm.canonicalize flat; Dbm_ref.canonicalize boxed
  | Norm k ->
      Dbm.normalize_per_clock flat ~k;
      Dbm_ref.normalize_per_clock boxed ~k

let start c =
  if c.from_top then (Dbm.top ~clocks:c.clocks, Dbm_ref.top ~clocks:c.clocks)
  else (Dbm.zero ~clocks:c.clocks, Dbm_ref.zero ~clocks:c.clocks)

let prop_flat_matches_boxed =
  QCheck.Test.make ~name:"flat DBM = boxed reference, bit for bit" ~count:2000
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let other_flat, other_boxed = start c in
      List.iter (apply_both other_flat other_boxed) c.other;
      let flat, boxed = start c in
      List.iter
        (fun op ->
          apply_both flat boxed op;
          let empty = Dbm_ref.is_empty boxed in
          if Dbm.is_empty flat <> empty then
            QCheck.Test.fail_reportf "is_empty differs after %s" (pp_op op);
          if not empty then
            for i = 0 to c.clocks do
              for j = 0 to c.clocks do
                if Dbm.get flat i j <> Dbm_ref.get boxed i j then
                  QCheck.Test.fail_reportf "entry (%d, %d) differs after %s" i
                    j (pp_op op)
              done
            done;
          let same flat_answer boxed_answer =
            if flat_answer <> boxed_answer then
              QCheck.Test.fail_reportf "includes/equal differ after %s"
                (pp_op op)
          in
          same (Dbm.includes flat other_flat) (Dbm_ref.includes boxed other_boxed);
          same (Dbm.includes other_flat flat) (Dbm_ref.includes other_boxed boxed);
          same (Dbm.equal flat other_flat) (Dbm_ref.equal boxed other_boxed))
        c.ops;
      true)

let suite =
  [
    ( "mc.dbm",
      [
        Alcotest.test_case "bound ordering" `Quick test_bound_ordering;
        Alcotest.test_case "bound addition" `Quick test_bound_add;
        Alcotest.test_case "zero zone" `Quick test_zero_zone;
        Alcotest.test_case "up + constrain" `Quick test_up_and_constrain;
        Alcotest.test_case "contradiction empties" `Quick
          test_empty_after_contradiction;
        Alcotest.test_case "reset" `Quick test_reset;
        Alcotest.test_case "free" `Quick test_free;
        Alcotest.test_case "includes" `Quick test_includes;
        Alcotest.test_case "eq atom" `Quick test_eq_atom;
        Alcotest.test_case "per-clock normalization" `Quick
          test_per_clock_normalization;
        QCheck_alcotest.to_alcotest prop_canonical_idempotent;
        QCheck_alcotest.to_alcotest prop_constrain_shrinks;
        Alcotest.test_case "strict tie empties" `Quick test_strict_tie;
        QCheck_alcotest.to_alcotest prop_flat_matches_boxed;
      ] );
  ]
