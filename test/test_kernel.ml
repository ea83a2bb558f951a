(* Slot kernels against their list oracles. The executor runs every
   guard, invariant, reset and constant-rate step through [Kernel], on
   both of its engines, so the lazy-vs-full-sweep property cannot catch
   a kernel that disagrees with the list semantics; this one compares
   each compiled operation with [Guard.holds], [Reset.apply],
   [Valuation.advance] and [Valuation.interpolate], bit for bit. *)

open Pte_hybrid

let pool = [ "a"; "b"; "c"; "d" ]
let bound_pool = [ 0.0; -0.0; 1.0; -2.5; 3.0; 1e-300; 0.1 ]

(* Values where the float arithmetic is delicate: signed zeros,
   subnormals, and the neighbours of every guard bound's [eps] edge. *)
let gen_value =
  let open QCheck.Gen in
  let eps = Guard.eps in
  let special =
    oneofl
      [ 0.0; -0.0; 4.9e-324; -4.9e-324; 2.2250738585072014e-308 /. 3.0;
        Float.min_float; 1.0; -1.0; 0.1; 1e300; -1e300 ]
  in
  let near =
    oneofl bound_pool >>= fun b ->
    oneofl
      [ b; b +. eps; b -. eps; Float.succ (b +. eps); Float.pred (b +. eps);
        Float.succ (b -. eps); Float.pred (b -. eps); Float.succ b; Float.pred b ]
  in
  oneof [ special; near; float_range (-5.0) 5.0 ]

let gen_var = QCheck.Gen.oneofl pool

(* A declaration order over the pool, with a few duplicates. *)
let gen_layout_vars =
  let open QCheck.Gen in
  map2 ( @ ) (shuffle_l pool) (list_size (int_bound 2) gen_var)

let gen_valuation =
  let open QCheck.Gen in
  map (fun xs -> Valuation.of_list (List.combine pool xs)) (list_repeat 4 gen_value)

let gen_guard =
  let open QCheck.Gen in
  list_size (int_bound 4)
    (map3 Guard.atom gen_var
       (oneofl Guard.[ Lt; Le; Gt; Ge; Eq ])
       (oneofl bound_pool))

let gen_reset =
  let open QCheck.Gen in
  list_size (int_bound 6)
    (pair gen_var
       (oneof
          [ map (fun c -> Reset.Set_const c) gen_value;
            map (fun c -> Reset.Add_const c) gen_value;
            map (fun v -> Reset.Copy v) gen_var ]))

let gen_rates =
  let open QCheck.Gen in
  list_size (int_bound 6) (pair gen_var (oneof [ gen_value; float_range (-2.0) 2.0 ]))

let gen_span =
  QCheck.Gen.(oneof [ oneofl [ 1e-3; 0.01; 0.0; 4.9e-324; 1.0 ]; float_range 0.0 1.0 ])

let gen_alpha =
  QCheck.Gen.(oneof [ oneofl [ 0.0; 0.5; 1.0; 4.9e-324 ]; float_range 0.0 1.0 ])

type case = {
  vars : Var.t list;
  v0 : Valuation.t;
  v1 : Valuation.t;
  guard : Guard.t;
  reset : Reset.t;
  rates : (Var.t * float) list;
  span : float;
  repeats : int;
  alpha : float;
}

let gen_case =
  let open QCheck.Gen in
  gen_layout_vars >>= fun vars ->
  pair gen_valuation gen_valuation >>= fun (v0, v1) ->
  triple gen_guard gen_reset gen_rates >>= fun (guard, reset, rates) ->
  triple gen_span (int_bound 3) gen_alpha >|= fun (span, repeats, alpha) ->
  { vars; v0; v1; guard; reset; rates; span; repeats; alpha }

let print_case c =
  let floats = String.concat ", " in
  Printf.sprintf
    "vars [%s]; v0 %s; v1 %s; guard %s; reset %s; rates [%s]; span %h x%d; alpha %h"
    (String.concat "; " c.vars)
    (Fmt.str "%a" Valuation.pp c.v0)
    (Fmt.str "%a" Valuation.pp c.v1)
    (Fmt.str "%a" Guard.pp c.guard)
    (Fmt.str "%a" Reset.pp c.reset)
    (floats (List.map (fun (v, r) -> Printf.sprintf "%s'=%h" v r) c.rates))
    c.span c.repeats c.alpha

let bits valuation =
  List.map (fun (v, x) -> (v, Int64.bits_of_float x)) (Valuation.to_list valuation)

let rec repeat k f x = if k = 0 then x else repeat (k - 1) f (f x)

let agree c =
  let l = Kernel.layout c.vars in
  let compiled f =
    let values = Kernel.load l c.v0 in
    f values;
    bits (Kernel.store l values)
  in
  let guard_ok =
    Kernel.holds (Kernel.guard l c.guard) (Kernel.load l c.v0)
    = Guard.holds c.guard c.v0
  in
  let reset_ok =
    compiled (Kernel.apply (Kernel.reset l c.reset)) = bits (Reset.apply c.reset c.v0)
  in
  let rates = Kernel.rates l c.rates in
  let step_ok =
    compiled (fun values -> Kernel.step rates values c.span)
    = bits (Valuation.advance c.v0 c.rates c.span)
  in
  let replay_ok =
    compiled (fun values -> Kernel.replay rates values c.span c.repeats)
    = bits
        (if c.span <= 0.0 then c.v0
         else repeat c.repeats (fun v -> Valuation.advance v c.rates c.span) c.v0)
  in
  let interpolate_ok =
    let into = Array.make (Kernel.size l) Float.nan in
    Kernel.interpolate ~from:(Kernel.load l c.v0) ~target:(Kernel.load l c.v1)
      c.alpha into;
    bits (Kernel.store l into)
    = bits (Valuation.interpolate ~from:c.v0 ~target:c.v1 c.alpha)
  in
  let round_trip_ok = bits (Kernel.store l (Kernel.load l c.v0)) = bits c.v0 in
  guard_ok && reset_ok && step_ok && replay_ok && interpolate_ok && round_trip_ok

let prop_kernel_matches_lists =
  QCheck.Test.make ~name:"kernels = list semantics, bit for bit" ~count:2000
    (QCheck.make ~print:print_case gen_case)
    agree

let test_undeclared_refused () =
  let l = Kernel.layout [ "x" ] in
  Alcotest.(check int) "undeclared slot" (-1) (Kernel.find l "q");
  List.iter
    (fun (what, compile) ->
      match compile () with
      | () -> Alcotest.failf "%s compiled an undeclared variable" what
      | exception Invalid_argument _ -> ())
    [ ("guard", fun () -> ignore (Kernel.guard l [ Guard.atom "q" Guard.Ge 1.0 ]));
      ("reset", fun () -> ignore (Kernel.reset l [ ("x", Reset.Copy "q") ]));
      ("rates", fun () -> ignore (Kernel.rates l [ ("q", 1.0) ])) ]

let suite =
  [
    ( "hybrid.kernel",
      [
        QCheck_alcotest.to_alcotest prop_kernel_matches_lists;
        Alcotest.test_case "undeclared variables refused" `Quick
          test_undeclared_refused;
      ] );
  ]
