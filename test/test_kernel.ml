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
      ("rates", fun () -> ignore (Kernel.rates l [ ("q", 1.0) ]));
      ( "ode",
        fun () ->
          ignore
            (Kernel.flow l
               (Flow.Ode { reads = [ "q" ]; drives = [ "x" ]; f = (fun _ _ _ -> ()) })) ) ]

(* ---- ODE flows: the executor's compiled step against the list loop ----

   Both engines of "lazy clocks = full sweep" run the same compiled ODE
   step, so that property cannot catch a slot mix-up in it. Here the
   executor steps a two-location ODE automaton, and a hand-written loop
   steps the same automaton on a [Valuation.t] with [Flow.derivatives],
   [Valuation.advance], [Guard.holds], [Valuation.interpolate] and
   [Reset.apply]: the executor's semantics spelt out on lists, invariant
   bisection and forced transitions included. *)

(* Output [j] of a random vector field: [k + m * x.(src) + w * time];
   an output marked [skip] is written only in the first half of every
   quarter second, so it must read 0 in the second. *)
type field = {
  inputs : Var.t list;
  outputs : Var.t list;
  k : float array;
  m : float array;
  w : float array;
  src : int array;
  skip : bool array;
}

let ode_of field =
  let n_in = List.length field.inputs in
  Flow.Ode
    {
      reads = field.inputs;
      drives = field.outputs;
      f =
        (fun time x dx ->
          for j = 0 to Array.length dx - 1 do
            if (not field.skip.(j)) || Float.rem time 0.25 < 0.125 then
              dx.(j) <-
                field.k.(j)
                +. (field.m.(j) *. if n_in = 0 then 1.0 else x.(field.src.(j) mod n_in))
                +. (field.w.(j) *. time)
          done);
    }

let gen_field =
  let open QCheck.Gen in
  list_size (int_bound 4) gen_var >>= fun inputs ->
  list_size (int_range 1 4) gen_var >>= fun driven ->
  (* one variable driven twice *)
  let outputs = driven @ [ List.hd driven ] in
  let n = List.length outputs in
  let coef = oneof [ gen_value; float_range (-2.0) 2.0 ] in
  map4
    (fun k m w (src, skip) -> { inputs; outputs; k; m; w; src; skip })
    (array_repeat n coef) (array_repeat n coef)
    (array_repeat n (oneof [ return 0.0; float_range (-1.0) 1.0 ]))
    (pair (array_repeat n (int_bound 3))
       (array_repeat n (frequency [ (4, return false); (1, return true) ])))

type ode_case = {
  decl : Var.t list;
  init : (Var.t * float) list;
  fields : field * field;
  invariants : Guard.t * Guard.t;
  resets : Reset.t * Reset.t;  (* of the forced edges A -> B and B -> A *)
  dt : float;
  steps : int;
}

let gen_ode_case =
  let open QCheck.Gen in
  gen_layout_vars >>= fun decl ->
  list_repeat 4 gen_value >>= fun values ->
  let init = List.combine pool values in
  let v0 = Valuation.of_list init in
  (* A's invariant must hold initially: keep the random atoms that do,
     and fence the first variable A drives into a band around its
     initial value, which the flow will usually leave *)
  pair gen_field gen_field >>= fun (fa, fb) ->
  let x = List.hd fa.outputs in
  triple gen_guard gen_guard (pair (float_range 0.0 0.5) (float_range 0.0 0.5))
  >>= fun (ga, gb, (up, down)) ->
  let x0 = Valuation.get v0 x in
  let inv_a =
    List.filter (fun a -> Guard.holds [ a ] v0) ga
    @ [ Guard.atom x Guard.Le (x0 +. up); Guard.atom x Guard.Ge (x0 -. down) ]
  in
  let inv_a = List.filter (fun a -> Guard.holds [ a ] v0) inv_a in
  triple (pair gen_reset gen_reset) (oneofl [ 1e-3; 0.01; 0.1; 0.5 ]) (int_range 1 60)
  >|= fun (resets, dt, steps) ->
  { decl; init; fields = (fa, fb); invariants = (inv_a, gb); resets; dt; steps }

let print_ode_case c =
  let field f =
    Printf.sprintf "reads [%s] drives [%s] k [%s] m [%s] w [%s] src [%s] skip [%s]"
      (String.concat ";" f.inputs) (String.concat ";" f.outputs)
      (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") f.k)))
      (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") f.m)))
      (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") f.w)))
      (String.concat ";" (Array.to_list (Array.map string_of_int f.src)))
      (String.concat ";" (Array.to_list (Array.map string_of_bool f.skip)))
  in
  Printf.sprintf "vars [%s]; init [%s]; A: %s, inv %s, reset %s; B: %s, inv %s, reset %s; dt %g x%d"
    (String.concat ";" c.decl)
    (String.concat ";" (List.map (fun (v, x) -> Printf.sprintf "%s=%h" v x) c.init))
    (field (fst c.fields)) (Fmt.str "%a" Guard.pp (fst c.invariants))
    (Fmt.str "%a" Reset.pp (fst c.resets)) (field (snd c.fields))
    (Fmt.str "%a" Guard.pp (snd c.invariants)) (Fmt.str "%a" Reset.pp (snd c.resets))
    c.dt c.steps

let ode_automaton c =
  let location name field invariant = Location.make ~invariant ~flow:(ode_of field) name in
  Automaton.make ~name:"ode" ~vars:c.decl
    ~locations:
      [ location "A" (fst c.fields) (fst c.invariants);
        location "B" (snd c.fields) (snd c.invariants) ]
    ~edges:
      [ Edge.make ~urgency:Edge.Delayed ~reset:(fst c.resets) ~src:"A" ~dst:"B" ();
        Edge.make ~urgency:Edge.Delayed ~reset:(snd c.resets) ~src:"B" ~dst:"A" () ]
    ~initial_location:"A" ~initial_values:c.init ()

(* The location and valuation bits after each step, then how the run
   ended. *)
let executor_run c =
  let exec =
    Executor.create
      ~config:{ Executor.default_config with dt = c.dt }
      (System.make ~name:"ode" [ ode_automaton c ])
  in
  let seen = ref [] in
  let outcome =
    match
      for _ = 1 to c.steps do
        Executor.step exec;
        seen :=
          (Executor.location_of exec "ode", bits (Executor.valuation_of exec "ode"))
          :: !seen
      done
    with
    | () -> "ok"
    | exception Executor.Zeno _ -> "zeno"
  in
  (List.rev !seen, outcome)

exception List_zeno

let list_run c =
  let a = ode_automaton c in
  let flow = function "A" -> ode_of (fst c.fields) | _ -> ode_of (snd c.fields) in
  let invariant = function "A" -> fst c.invariants | _ -> snd c.invariants in
  let leave = function "A" -> ("B", fst c.resets) | _ -> ("A", snd c.resets) in
  let loc = ref "A" and v = ref (Automaton.initial_valuation a) and now = ref 0.0 in
  let rec advance ~start ~span ~depth =
    if span > 0.0 then begin
      if depth > Executor.default_config.max_chain then raise List_zeno;
      let euler v = Valuation.advance v (Flow.derivatives (flow !loc) ~time:start v) span in
      let inv = invariant !loc in
      if inv = [] then v := euler !v
      else
        let tentative = euler !v in
        if Guard.holds inv tentative then v := tentative
        else begin
          let alpha = ref 0.0 and width = ref 0.5 in
          for _ = 1 to 30 do
            let candidate = !alpha +. !width in
            if Guard.holds inv (Valuation.interpolate ~from:!v ~target:tentative candidate)
            then alpha := candidate;
            width := !width /. 2.0
          done;
          v := Valuation.interpolate ~from:!v ~target:tentative !alpha;
          let boundary = start +. (!alpha *. span) in
          let dst, reset = leave !loc in
          v := Reset.apply reset !v;
          loc := dst;
          advance ~start:boundary ~span:(span -. (!alpha *. span)) ~depth:(depth + 1)
        end
    end
  in
  let seen = ref [] in
  let outcome =
    match
      for _ = 1 to c.steps do
        advance ~start:!now ~span:c.dt ~depth:0;
        now := !now +. c.dt;
        seen := (!loc, bits !v) :: !seen
      done
    with
    | () -> "ok"
    | exception List_zeno -> "zeno"
  in
  (List.rev !seen, outcome)

let prop_ode_matches_lists =
  QCheck.Test.make ~name:"slot ODE = list ODE, bit for bit" ~count:500
    (QCheck.make ~print:print_ode_case gen_ode_case)
    (fun c -> executor_run c = list_run c)

(* The Table-I patient alone for 10^4 steps of 10 ms, its ventilation
   paused for 40 s and then resumed, against the same list loop. *)
let test_patient_matches_list_loop () =
  let module P = Pte_tracheotomy.Patient in
  let dt = 0.01 in
  let exec =
    Executor.create
      ~config:{ Executor.default_config with dt }
      (System.make ~name:"patient" [ P.automaton ])
  in
  let vent_ok = Executor.var_ref exec P.name P.vent_ok_var
  and spo2 = Executor.var_ref exec P.name P.spo2_var in
  let flow = (List.hd P.automaton.Automaton.locations).Location.flow in
  let v = ref (Automaton.initial_valuation P.automaton) and now = ref 0.0 in
  let lowest = ref infinity in
  for i = 0 to 9_999 do
    if i = 1_000 || i = 5_000 then begin
      let x = if i = 1_000 then 0.0 else 1.0 in
      Executor.set exec vent_ok x;
      v := Valuation.set !v P.vent_ok_var x
    end;
    Executor.step exec;
    v := Valuation.advance !v (Flow.derivatives flow ~time:!now !v) dt;
    now := !now +. dt;
    let got = Executor.get exec spo2 and want = Valuation.get !v P.spo2_var in
    if Int64.bits_of_float got <> Int64.bits_of_float want then
      Alcotest.failf "step %d: spo2 %h, list loop %h" i got want;
    lowest := Float.min !lowest got
  done;
  Alcotest.(check bool) "desaturated below 92 during the pause" true (!lowest < 92.0);
  Alcotest.(check bool) "recovered" true (Executor.get exec spo2 > 97.0)

let suite =
  [
    ( "hybrid.kernel",
      [
        QCheck_alcotest.to_alcotest prop_kernel_matches_lists;
        Alcotest.test_case "undeclared variables refused" `Quick
          test_undeclared_refused;
        QCheck_alcotest.to_alcotest prop_ode_matches_lists;
        Alcotest.test_case "Table-I patient = list loop" `Quick
          test_patient_matches_list_loop;
      ] );
  ]
