(* Automaton construction, validation, Definition 2 independence,
   Definition 3 simplicity. *)

open Pte_hybrid

let tiny ?(name = "tiny") ?(vars = [ "c" ]) ?(initial_values = []) () =
  Automaton.make ~name ~vars
    ~locations:
      [
        Location.make ~flow:(Flow.clocks vars) "A";
        Location.make ~kind:Location.Risky ~flow:(Flow.clocks vars) "B";
      ]
    ~edges:
      [
        Edge.make ~guard:[ Guard.atom "c" Guard.Ge 1.0 ]
          ~reset:(Reset.set "c" 0.0) ~src:"A" ~dst:"B" ();
        Edge.make ~guard:[ Guard.atom "c" Guard.Ge 2.0 ]
          ~reset:(Reset.set "c" 0.0) ~src:"B" ~dst:"A" ();
      ]
    ~initial_location:"A" ~initial_values ()

let test_valid () =
  match Automaton.validate (tiny ()) with
  | Ok () -> ()
  | Error errs -> Alcotest.failf "unexpected: %s" (String.concat "; " errs)

let expect_invalid automaton fragment =
  match Automaton.validate automaton with
  | Ok () -> Alcotest.failf "expected validation failure (%s)" fragment
  | Error errs ->
      let all = String.concat "; " errs in
      let contains =
        let n = String.length fragment and h = String.length all in
        let rec go i = i + n <= h && (String.sub all i n = fragment || go (i + 1)) in
        go 0
      in
      if not contains then
        Alcotest.failf "error %S does not mention %S" all fragment

let test_duplicate_locations () =
  let a = tiny () in
  let dup =
    { a with Automaton.locations = a.Automaton.locations @ [ Location.make "A" ] }
  in
  expect_invalid dup "duplicate location"

let test_dangling_edge () =
  let a = tiny () in
  let bad =
    { a with Automaton.edges = Edge.make ~src:"A" ~dst:"Nowhere" () :: a.Automaton.edges }
  in
  expect_invalid bad "unknown destination"

let test_missing_initial () =
  let a = tiny () in
  expect_invalid { a with Automaton.initial_location = "Zed" } "does not exist"

let test_undeclared_guard_var () =
  let a = tiny () in
  let bad =
    {
      a with
      Automaton.edges =
        Edge.make ~guard:[ Guard.atom "ghost" Guard.Ge 0.0 ] ~src:"A" ~dst:"B" ()
        :: a.Automaton.edges;
    }
  in
  expect_invalid bad "undeclared variable"

let test_undeclared_flow_var () =
  (* a [Rates] flow on [q] with [~vars:["x"]] used to run and grow the
     valuation to {q=2, x=1}; lint L030 flagged it, validation did not *)
  let bad =
    Automaton.make ~name:"flow" ~vars:[ "x" ]
      ~locations:[ Location.make ~flow:(Flow.Rates [ ("q", 1.0) ]) "A" ]
      ~edges:[] ~initial_location:"A" ~initial_values:[ ("x", 1.0) ] ()
  in
  expect_invalid bad "flow of \"A\" mentions undeclared variable \"q\""

let test_undeclared_ode_var () =
  (* an ODE names what it reads and drives, so both lists are checked
     as a [Rates] flow's variables are *)
  let ode ~reads ~drives =
    Automaton.make ~name:"ode" ~vars:[ "x" ]
      ~locations:
        [ Location.make ~flow:(Flow.Ode { reads; drives; f = (fun _ _ _ -> ()) }) "A" ]
      ~edges:[] ~initial_location:"A" ()
  in
  expect_invalid (ode ~reads:[ "q" ] ~drives:[ "x" ])
    "flow of \"A\" mentions undeclared variable \"q\"";
  expect_invalid (ode ~reads:[ "x" ] ~drives:[ "x"; "r" ])
    "flow of \"A\" mentions undeclared variable \"r\"";
  match Automaton.validate (ode ~reads:[ "x" ] ~drives:[ "x"; "x" ]) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "declared ODE refused: %s" (String.concat "; " e)

let test_initial_violating_invariant () =
  let a = tiny () in
  let locations =
    [
      Location.make ~flow:(Flow.clocks [ "c" ])
        ~invariant:[ Guard.atom "c" Guard.Le 0.5 ] "A";
      Location.make ~flow:(Flow.clocks [ "c" ]) "B";
    ]
  in
  expect_invalid
    { a with Automaton.locations; initial_values = [ ("c", 1.0) ] }
    "violates invariant"

let test_risky_partition () =
  let a = tiny () in
  Alcotest.(check bool) "A safe" false (Automaton.is_risky a "A");
  Alcotest.(check bool) "B risky" true (Automaton.is_risky a "B");
  Alcotest.(check (list string)) "risky set" [ "B" ] (Automaton.risky_locations a)

let test_initial_valuation () =
  let a = tiny () ~initial_values:[ ("c", 0.25) ] in
  Alcotest.(check (float 0.0)) "explicit" 0.25
    (Valuation.get (Automaton.initial_valuation a) "c")

let test_roots () =
  let a =
    Automaton.make ~name:"talker" ~vars:[]
      ~locations:[ Location.make "L" ]
      ~edges:
        [
          Edge.make ~label:(Label.Send "ping") ~src:"L" ~dst:"L" ();
          Edge.make ~label:(Label.Recv_lossy "pong") ~src:"L" ~dst:"L" ();
          Edge.make ~label:(Label.Internal "tick") ~src:"L" ~dst:"L" ();
        ]
      ~initial_location:"L" ()
  in
  Alcotest.(check bool) "emits ping" true
    (Var.Set.mem "ping" (Automaton.emitted_roots a));
  Alcotest.(check bool) "emits tick" true
    (Var.Set.mem "tick" (Automaton.emitted_roots a));
  Alcotest.(check bool) "listens pong" true
    (Var.Set.mem "pong" (Automaton.listened_roots a));
  Alcotest.(check bool) "does not listen ping" false
    (Var.Set.mem "ping" (Automaton.listened_roots a))

let test_independence () =
  let a = tiny ~name:"a" ~vars:[ "x" ] () in
  let b = tiny ~name:"b" ~vars:[ "y" ] () in
  (* same location names "A"/"B" -> not independent (Definition 2.2) *)
  Alcotest.(check bool) "shared locations" false (Automaton.independent a b);
  let c =
    Automaton.make ~name:"c" ~vars:[ "z" ]
      ~locations:[ Location.make ~flow:(Flow.clocks [ "z" ]) "C1" ]
      ~edges:[] ~initial_location:"C1" ()
  in
  Alcotest.(check bool) "disjoint everything" true (Automaton.independent a c);
  let d =
    Automaton.make ~name:"d" ~vars:[ "x" ]
      ~locations:[ Location.make ~flow:(Flow.clocks [ "x" ]) "D1" ]
      ~edges:[] ~initial_location:"D1" ()
  in
  Alcotest.(check bool) "shared variable" false (Automaton.independent a d)

let test_simplicity () =
  (* A'vent is the paper's canonical simple automaton *)
  Alcotest.(check bool) "A'vent simple" true
    (Automaton.is_simple Pte_tracheotomy.Ventilator.stand_alone);
  (* differing invariants break condition 1 *)
  let not_simple =
    Automaton.make ~name:"ns" ~vars:[ "x" ]
      ~locations:
        [
          Location.make ~invariant:[ Guard.atom "x" Guard.Le 1.0 ] "L1";
          Location.make "L2";
        ]
      ~edges:[] ~initial_location:"L1" ()
  in
  Alcotest.(check bool) "different invariants" false (Automaton.is_simple not_simple);
  (* nonzero initial values break condition 3 *)
  let shifted = tiny ~initial_values:[ ("c", 1.0) ] () in
  Alcotest.(check bool) "nonzero initial" false (Automaton.is_simple shifted)

let test_system_validate () =
  let sys = System.make ~name:"s" [ tiny ~name:"p" (); tiny ~name:"q" () ] in
  (match System.validate sys with
  | Ok () -> ()
  | Error e -> Alcotest.failf "local names should be fine: %s" (String.concat ";" e));
  let dup = System.make ~name:"s" [ tiny ~name:"p" (); tiny ~name:"p" () ] in
  Alcotest.(check bool) "duplicate member name" true
    (Result.is_error (System.validate dup))

let test_system_listeners () =
  let talker =
    Automaton.make ~name:"t" ~vars:[]
      ~locations:[ Location.make "L" ]
      ~edges:[ Edge.make ~label:(Label.Send "evt") ~src:"L" ~dst:"L" () ]
      ~initial_location:"L" ()
  in
  let listener =
    Automaton.make ~name:"l" ~vars:[]
      ~locations:[ Location.make "M" ]
      ~edges:[ Edge.make ~label:(Label.Recv_lossy "evt") ~src:"M" ~dst:"M" () ]
      ~initial_location:"M" ()
  in
  let sys = System.make ~name:"s" [ talker; listener ] in
  Alcotest.(check (list string)) "listener found" [ "l" ]
    (List.map
       (fun (a : Automaton.t) -> a.Automaton.name)
       (System.listeners sys "evt"))

let suite =
  [
    ( "hybrid.automaton",
      [
        Alcotest.test_case "valid automaton" `Quick test_valid;
        Alcotest.test_case "duplicate locations" `Quick test_duplicate_locations;
        Alcotest.test_case "dangling edge" `Quick test_dangling_edge;
        Alcotest.test_case "missing initial" `Quick test_missing_initial;
        Alcotest.test_case "undeclared guard var" `Quick test_undeclared_guard_var;
        Alcotest.test_case "initial violates invariant" `Quick
          test_initial_violating_invariant;
        Alcotest.test_case "risky partition" `Quick test_risky_partition;
        Alcotest.test_case "initial valuation" `Quick test_initial_valuation;
        Alcotest.test_case "emitted/listened roots" `Quick test_roots;
        Alcotest.test_case "Definition 2 independence" `Quick test_independence;
        Alcotest.test_case "Definition 3 simplicity" `Quick test_simplicity;
        Alcotest.test_case "system validation" `Quick test_system_validate;
        Alcotest.test_case "system listeners" `Quick test_system_listeners;
        Alcotest.test_case "undeclared flow var" `Quick test_undeclared_flow_var;
        Alcotest.test_case "undeclared ODE var" `Quick test_undeclared_ode_var;
      ] );
  ]
