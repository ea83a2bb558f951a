(* The zone-reachability model checker: translation rules, lossy product
   semantics, and the Theorem 1 verdicts on the pattern. *)

open Pte_core

let p = Params.case_study

let budget = { Pte_mc.Reach.default_config with max_states = 60_000 }

let kinds result =
  List.sort_uniq compare
    (List.map
       (fun (v : Pte_mc.Reach.violation) ->
         match v.Pte_mc.Reach.kind with
         | Pte_mc.Reach.Rule1_dwell { entity; _ } -> "rule1:" ^ entity
         | Pte_mc.Reach.P1_enter_safeguard { inner; _ } -> "p1:" ^ inner
         | Pte_mc.Reach.P2_not_embedded { inner; _ } -> "p2:" ^ inner
         | Pte_mc.Reach.P3_exit_safeguard { outer; _ } -> "p3:" ^ outer)
       result.Pte_mc.Reach.violations)

let test_translate_clock_classification () =
  let counter = ref 0 in
  let alloc _ = incr counter; !counter in
  let sup = Pattern.supervisor p in
  let ta = Pte_mc.Ta.translate sup ~alloc ~is_system_root:(fun _ -> true) in
  (* c, ls, fb are clocks; approval is an environment variable *)
  Alcotest.(check int) "3 clocks" 3 (List.length ta.Pte_mc.Ta.clock_of_var);
  Alcotest.(check bool) "approval not a clock" true
    (not (List.mem_assoc "approval" ta.Pte_mc.Ta.clock_of_var))

let test_translate_rejects_ode () =
  let counter = ref 0 in
  let alloc _ = incr counter; !counter in
  match
    Pte_mc.Ta.translate Pte_tracheotomy.Patient.automaton ~alloc
      ~is_system_root:(fun _ -> true)
  with
  | exception Pte_mc.Ta.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected Unsupported for ODE flows"

let test_translate_urgency () =
  let counter = ref 0 in
  let alloc _ = incr counter; !counter in
  let init = Pattern.initializer_ p in
  let ta = Pte_mc.Ta.translate init ~alloc ~is_system_root:(fun r ->
      (* only the stimuli have no sender *)
      not (String.length r >= 4 && String.sub r 0 4 = "stim"))
  in
  let loc name =
    let rec go i =
      if ta.Pte_mc.Ta.locations.(i).Pte_mc.Ta.name = name then
        ta.Pte_mc.Ta.locations.(i)
      else go (i + 1)
    in
    go 0
  in
  (* dispatch locations are urgent; timed locations get derived invariants *)
  Alcotest.(check bool) "Send Req urgent" true (loc "Send Req").Pte_mc.Ta.urgent;
  Alcotest.(check bool) "Risky Core not urgent" false
    (loc "Risky Core").Pte_mc.Ta.urgent;
  Alcotest.(check bool) "Risky Core capped by lease" true
    (List.exists
       (fun (a : Pte_mc.Ta.clock_atom) ->
         a.Pte_mc.Ta.cmp = Pte_mc.Dbm.Le && a.Pte_mc.Ta.const = 20.0)
       (loc "Risky Core").Pte_mc.Ta.invariant)

let test_active_clock_analysis () =
  let counter = ref 0 in
  let alloc _ = incr counter; !counter in
  let init = Pattern.initializer_ p in
  let ta = Pte_mc.Ta.translate init ~alloc ~is_system_root:(fun _ -> true) in
  let active = Pte_mc.Ta.active_clocks ta in
  let c = List.assoc "c" ta.Pte_mc.Ta.clock_of_var in
  let index_of name =
    let rec go i =
      if ta.Pte_mc.Ta.locations.(i).Pte_mc.Ta.name = name then i else go (i + 1)
    in
    go 0
  in
  (* c is read by Risky Core's lease guard *)
  Alcotest.(check bool) "c active in Risky Core" true
    (Pte_mc.Ta.Int_set.mem c active.(index_of "Risky Core"));
  (* in Fall-Back, every outgoing path resets c before reading it *)
  Alcotest.(check bool) "c inactive in Fall-Back" false
    (Pte_mc.Ta.Int_set.mem c active.(index_of "Fall-Back"))

let test_with_lease_no_violation_in_budget () =
  (* bounded sweep of the valid configuration: no violation may surface
     (the full exhaustive proof runs in the benchmark harness) *)
  let r = Pte_mc.Reach.check_pattern ~config:budget p in
  Alcotest.(check (list string)) "no violations" [] (kinds r);
  Alcotest.(check bool) "explored something" true (r.Pte_mc.Reach.states > 1000)

let test_no_lease_rule1 () =
  let r =
    Pte_mc.Reach.check_pattern ~lease:false
      ~config:{ budget with stop_at_first = true }
      p
  in
  Alcotest.(check bool) "found" true
    (List.mem "rule1:ventilator" (kinds r) || List.mem "rule1:laser" (kinds r))

let test_no_lease_first_not_exhaustive () =
  (* the search stops with states still queued: not a full coverage *)
  let r =
    Pte_mc.Reach.check_pattern ~lease:false
      ~config:{ Pte_mc.Reach.default_config with stop_at_first = true }
      p
  in
  Alcotest.(check int) "states" 525 r.Pte_mc.Reach.states;
  Alcotest.(check int) "transitions" 1313 r.Pte_mc.Reach.transitions;
  Alcotest.(check bool) "not exhausted" false r.Pte_mc.Reach.exhausted

let test_pinned_counts () =
  (* exact state-space shape of a bounded with-lease search: any change
     to the zone algebra or the visited store that alters one zone moves
     these counts *)
  let r =
    Pte_mc.Reach.check_pattern
      ~config:{ Pte_mc.Reach.default_config with max_states = 10_000 }
      p
  in
  Alcotest.(check int) "states" 10_001 r.Pte_mc.Reach.states;
  Alcotest.(check int) "transitions" 35_663 r.Pte_mc.Reach.transitions;
  Alcotest.(check int) "discrete states" 529 r.Pte_mc.Reach.discrete_states;
  Alcotest.(check int) "max zones per key" 121 r.Pte_mc.Reach.max_zones_per_key;
  Alcotest.(check bool) "bounded" false r.Pte_mc.Reach.exhausted

let test_c5_violation_found () =
  let bad =
    {
      p with
      Params.entities =
        [|
          p.Params.entities.(0);
          { (p.Params.entities.(1)) with Params.t_enter_max = 3.0 };
        |];
    }
  in
  let r =
    Pte_mc.Reach.check_pattern ~config:{ budget with stop_at_first = true } bad
  in
  Alcotest.(check bool) "safeguard breach found" true
    (List.exists
       (fun k -> k = "p1:laser" || k = "p2:laser")
       (kinds r))

let test_counterexample_trace () =
  let r =
    Pte_mc.Reach.check_pattern ~lease:false
      ~config:{ budget with stop_at_first = true }
      p
  in
  match r.Pte_mc.Reach.violations with
  | [] -> Alcotest.fail "expected a violation"
  | v :: _ ->
      let trace = r.Pte_mc.Reach.trace v.Pte_mc.Reach.state in
      Alcotest.(check bool) "non-trivial trace" true (List.length trace > 3);
      Alcotest.(check string) "starts at init" "init" (List.hd trace)

let test_tight_dwell_bound_violated () =
  (* demanding a dwell bound below what the pattern guarantees must
     produce a Rule 1 counterexample: the guarantee is T_wait + T_LS1,
     and the ventilator really can dwell T_run,1 + T_exit,1 = 41 s *)
  let r =
    Pte_mc.Reach.check_pattern ~dwell_bound:30.0
      ~config:{ budget with stop_at_first = true }
      p
  in
  Alcotest.(check bool) "rule1 found" true
    (List.exists (fun k -> String.length k >= 5 && String.sub k 0 5 = "rule1") (kinds r))

let test_generous_dwell_bound_ok () =
  let r =
    Pte_mc.Reach.check_pattern ~dwell_bound:60.0 ~config:budget p
  in
  Alcotest.(check (list string)) "no violations at 60s" [] (kinds r)

(* The search loop against [Reach_ref], a copy of the search before it
   was cut down to zone work: every count, every violation (kind and
   state, in order) and every trace must agree, so the two explore the
   same states in the same order. *)
let test_search_equals_reference () =
  let kind = Alcotest.testable Pte_mc.Reach.pp_violation_kind ( = ) in
  let same name ~system ~spec config =
    let r = Pte_mc.Reach.check ~config ~system ~spec () in
    let o = Reach_ref.check ~config ~system ~spec () in
    let int what a b = Alcotest.(check int) (name ^ ": " ^ what) b a in
    int "states" r.Pte_mc.Reach.states o.Reach_ref.states;
    int "transitions" r.Pte_mc.Reach.transitions o.Reach_ref.transitions;
    int "discrete states" r.Pte_mc.Reach.discrete_states
      o.Reach_ref.discrete_states;
    int "max zones per key" r.Pte_mc.Reach.max_zones_per_key
      o.Reach_ref.max_zones_per_key;
    Alcotest.(check bool) (name ^ ": exhausted") o.Reach_ref.exhausted
      r.Pte_mc.Reach.exhausted;
    let violations vs =
      List.map (fun (v : Pte_mc.Reach.violation) -> (v.kind, v.state)) vs
    in
    Alcotest.(check (list (pair kind int)))
      (name ^ ": violations")
      (violations o.Reach_ref.violations)
      (violations r.Pte_mc.Reach.violations);
    List.iter
      (fun (v : Pte_mc.Reach.violation) ->
        Alcotest.(check (list string))
          (Fmt.str "%s: trace to %d" name v.state)
          (o.Reach_ref.trace v.state) (r.Pte_mc.Reach.trace v.state))
      o.Reach_ref.violations
  in
  let pattern name ?(lease = true) config p =
    same name
      ~system:(Pattern.system ~lease p)
      ~spec:(Rules.of_params p) config
  in
  let bounded n = { Pte_mc.Reach.default_config with max_states = n } in
  let first = { Pte_mc.Reach.default_config with stop_at_first = true } in
  pattern "lease 10k" (bounded 10_000) p;
  pattern "lease 30k" (bounded 30_000) p;
  pattern "no lease, first" ~lease:false first p;
  pattern "no lease 5k" ~lease:false (bounded 5_000) p;
  let with_entity i f =
    let entities = Array.copy p.Params.entities in
    entities.(i) <- f entities.(i);
    { p with Params.entities }
  in
  List.iter
    (fun (name, broken) -> pattern name first broken)
    [ ( "break c2",
        with_entity 0 (fun e ->
            { e with Params.t_enter_max = 1.0; t_run_max = 2.0; t_exit = 2.0 }) );
      ("break c4", with_entity 1 (fun e -> { e with Params.t_run_max = 60.0 }));
      ("break c5", with_entity 1 (fun e -> { e with Params.t_enter_max = 3.0 }));
      ("break c6", with_entity 0 (fun e -> { e with Params.t_run_max = 20.0 }));
      ("break c7", with_entity 0 (fun e -> { e with Params.t_exit = 1.0 })) ];
  pattern "N = 3, 20k" (bounded 20_000) (Scale.params_exn ~n:3);
  same "two initiators, 20k"
    ~system:(Multi.system { Multi.params = p; initiators = [ 1; 2 ] })
    ~spec:(Rules.of_params p) (bounded 20_000)

(* the library's own guards against meaningless inputs: a NaN dwell
   bound raises while an infinite one leaves Rule 1 unchecked, and a
   non-finite clock constant never reaches a zone *)
let test_non_finite_inputs () =
  (match Pte_mc.Reach.check_pattern ~dwell_bound:Float.nan ~config:budget p with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "NaN dwell bound accepted");
  let unbounded =
    Pte_mc.Reach.check_pattern ~lease:false ~dwell_bound:Float.infinity
      ~config:{ Pte_mc.Reach.default_config with max_states = 1_000 }
      p
  in
  Alcotest.(check bool) "infinite bound: no Rule 1 violation" false
    (List.exists
       (fun k -> String.length k >= 5 && String.sub k 0 5 = "rule1")
       (kinds unbounded));
  List.iter
    (fun t_enter ->
      let init =
        Pattern.initializer_
          {
            p with
            Params.entities =
              [|
                p.Params.entities.(0);
                { (p.Params.entities.(1)) with Params.t_enter_max = t_enter };
              |];
          }
      in
      let counter = ref 0 in
      let alloc _ = incr counter; !counter in
      match Pte_mc.Ta.translate init ~alloc ~is_system_root:(fun _ -> true) with
      | exception Pte_mc.Ta.Unsupported _ -> ()
      | _ -> Alcotest.failf "constant %g accepted" t_enter)
    [ Float.nan; Float.infinity ]

let suite =
  [
    ( "mc.reach",
      [
        Alcotest.test_case "clock classification" `Quick
          test_translate_clock_classification;
        Alcotest.test_case "rejects ODE flows" `Quick test_translate_rejects_ode;
        Alcotest.test_case "urgency derivation" `Quick test_translate_urgency;
        Alcotest.test_case "active-clock analysis" `Quick
          test_active_clock_analysis;
        Alcotest.test_case "with-lease: clean in budget" `Slow
          test_with_lease_no_violation_in_budget;
        Alcotest.test_case "no-lease: Rule 1 counterexample" `Quick
          test_no_lease_rule1;
        Alcotest.test_case "c5 break: safeguard counterexample" `Quick
          test_c5_violation_found;
        Alcotest.test_case "counterexample trace" `Quick test_counterexample_trace;
        Alcotest.test_case "tight dwell bound refuted" `Quick
          test_tight_dwell_bound_violated;
        Alcotest.test_case "60s dwell bound verified in budget" `Slow
          test_generous_dwell_bound_ok;
        Alcotest.test_case "no-lease: stop-at-first not exhaustive" `Quick
          test_no_lease_first_not_exhaustive;
        Alcotest.test_case "pinned counts at 10k states" `Quick
          test_pinned_counts;
        Alcotest.test_case "search = reference" `Quick
          test_search_equals_reference;
        Alcotest.test_case "non-finite inputs refused" `Quick
          test_non_finite_inputs;
      ] );
  ]
