(* The multiple-initializer extension: structure, constraint checking,
   simulation safety with interleaved initiators, and a bounded model-
   checking sweep. *)

open Pte_core
open Pte_hybrid

let params = Params.case_study
let both = { Multi.params; initiators = [ 1; 2 ] }

let test_config_validation () =
  Alcotest.(check bool) "both ok" true (Result.is_ok (Multi.validate_config both));
  Alcotest.(check bool) "empty rejected" true
    (Result.is_error (Multi.validate_config { both with Multi.initiators = [] }));
  Alcotest.(check bool) "unordered rejected" true
    (Result.is_error
       (Multi.validate_config { both with Multi.initiators = [ 2; 1 ] }));
  Alcotest.(check bool) "out of range rejected" true
    (Result.is_error
       (Multi.validate_config { both with Multi.initiators = [ 1; 3 ] }));
  Alcotest.(check bool) "top entity must initiate" true
    (Result.is_error
       (Multi.validate_config { both with Multi.initiators = [ 1 ] }))

let test_constraint_check () =
  match Multi.check both with
  | Ok outcomes ->
      Alcotest.(check bool) "all ok" true (Constraints.all_ok outcomes);
      (* 7 base conditions + one c3 instance per initiator *)
      Alcotest.(check int) "count" 9 (List.length outcomes)
  | Error e -> Alcotest.fail e

let test_constraint_catches_low_t_req () =
  (* ξ2 as initiator needs T_req > (2-1)*T_wait = 3; 2.0 breaks only the
     per-initiator instance, not base c3 for... base c3 also uses (N-1);
     so push T_wait up instead: T_req = 5, T_wait = 4 -> base c3 needs
     4 < 5 (ok for k=1: 0 < 5) but k=2 needs 4 < 5 ok... use N=3. *)
  let p3 =
    Synthesis.synthesize_exn
      (Synthesis.default_requirements
         ~entity_names:[ "a"; "b"; "c" ]
         ~safeguards:
           [
             { Params.enter_risky_min = 2.0; exit_safe_min = 1.0 };
             { Params.enter_risky_min = 2.0; exit_safe_min = 1.0 };
           ])
  in
  (* T_req just above 1*T_wait: fine for initiator k=2, violating k=3 *)
  let p3 = { p3 with Params.t_req_max = 1.5 *. p3.Params.t_wait_max } in
  let config = { Multi.params = p3; initiators = [ 2; 3 ] } in
  match Multi.check config with
  | Ok outcomes ->
      let failing =
        List.filter (fun (o : Constraints.outcome) -> not o.Constraints.ok) outcomes
      in
      Alcotest.(check bool) "exactly the k=3 instance fails" true
        (List.length failing >= 1
        && List.for_all
             (fun (o : Constraints.outcome) ->
               o.Constraints.condition = Constraints.C3)
             failing)
  | Error e -> Alcotest.fail e

let test_system_builds () =
  let system = Multi.system both in
  (match System.validate system with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid: %s" (String.concat "; " e));
  Alcotest.(check int) "supervisor + 2 remotes" 3
    (List.length system.System.automata);
  (* the dual-role ventilator has both participant and initiator paths *)
  let vent = System.find_exn system "ventilator" in
  let names = Automaton.location_names vent in
  Alcotest.(check bool) "participant path" true (List.mem "Risky Core" names);
  Alcotest.(check bool) "initiator path" true
    (List.mem "Risky Core (init)" names);
  Alcotest.(check bool) "initiator risky marked" true
    (Automaton.is_risky vent "Risky Core (init)")

let test_wellformed () =
  let system = Multi.system both in
  List.iter
    (fun (a : Automaton.t) ->
      match Wellformed.check a with
      | [] -> ()
      | issues ->
          Alcotest.failf "%s: %a" a.Automaton.name
            Fmt.(list ~sep:(any "; ") Wellformed.pp_issue)
            issues)
    system.System.automata

let run_multi ~seed ~horizon =
  let system = Multi.system both in
  let rng = Pte_util.Rng.create seed in
  let net =
    Pte_net.Star.create ~base:"supervisor"
      ~remotes:[ "ventilator"; "laser" ]
      ~loss_kind:(Pte_net.Loss.wifi_interference ~average_loss:0.3)
      ~rng ()
  in
  let engine =
    Pte_sim.Engine.create
      ~config:{ Executor.default_config with dt = 0.01 }
      ~net ~seed:(seed + 1) system
  in
  (* both initiators fire requests; cancels while emitting *)
  List.iter
    (fun (automaton, req, cancel) ->
      Pte_sim.Scenario.exponential_stimulus engine ~mean:25.0 ~automaton
        ~armed_in:"Fall-Back" ~root:req ();
      let armed_in =
        if String.equal automaton "laser" then "Risky Core"
        else "Risky Core (init)"
      in
      Pte_sim.Scenario.exponential_stimulus engine ~mean:8.0 ~automaton
        ~armed_in ~root:cancel ())
    (Multi.stimuli both);
  Pte_sim.Engine.run engine ~until:horizon;
  (system, Pte_sim.Engine.trace engine)

let test_simulation_safe () =
  let horizon = 400.0 in
  let system, trace = run_multi ~seed:33 ~horizon in
  let spec = Rules.of_params params in
  let report = Monitor.analyze_system trace system spec ~horizon in
  Alcotest.(check int)
    (Fmt.str "%a" Monitor.pp_report report)
    0 (Monitor.episodes report);
  (* both initiators actually ran sessions *)
  let vent_solo =
    Pte_sim.Metrics.entries trace ~automaton:"ventilator"
      ~location:"Risky Core (init)"
  in
  let laser_sessions =
    Pte_sim.Metrics.entries trace ~automaton:"laser" ~location:"Risky Core"
  in
  Alcotest.(check bool)
    (Fmt.str "vent-initiated %d, laser-initiated %d" vent_solo laser_sessions)
    true
    (vent_solo >= 1 && laser_sessions >= 1)

let prop_multi_safe =
  QCheck.Test.make ~name:"multi-initializer trials never violate PTE" ~count:8
    QCheck.(make QCheck.Gen.(int_range 1 10_000))
    (fun seed ->
      let horizon = 250.0 in
      let system, trace = run_multi ~seed ~horizon in
      let report =
        Monitor.analyze_system trace system (Rules.of_params params) ~horizon
      in
      Monitor.episodes report = 0)

let test_mc_bounded_clean () =
  let system = Multi.system both in
  let spec = Rules.of_params params in
  let r =
    Pte_mc.Reach.check ~config:{ Pte_mc.Reach.default_config with max_states = 30_000 }
      ~system ~spec ()
  in
  Alcotest.(check int) "no violations in budget" 0
    (List.length r.Pte_mc.Reach.violations)

let test_mc_finds_no_lease_violation () =
  let system = Multi.system ~lease:false both in
  let spec = Rules.of_params params in
  let r =
    Pte_mc.Reach.check
      ~config:{ Pte_mc.Reach.max_states = 60_000; stop_at_first = true }
      ~system ~spec ()
  in
  Alcotest.(check bool) "rule-1 breach found" true
    (List.exists
       (fun (v : Pte_mc.Reach.violation) ->
         match v.Pte_mc.Reach.kind with
         | Pte_mc.Reach.Rule1_dwell _ -> true
         | _ -> false)
       r.Pte_mc.Reach.violations)

(* The shared chain builders against a verbatim copy of the builders they
   replaced ([Pattern_ref]). A dual-role entity lists its Initializer
   locations in the single-Initializer order now, so its locations are
   compared as sorted lists; everything else must be [=]. *)
let test_builders_equal_reference () =
  let chain3 =
    (* bench A2's synthesized N = 3 chain *)
    Synthesis.synthesize_exn
      (Synthesis.default_requirements
         ~entity_names:[ "pump"; "xray"; "carm" ]
         ~safeguards:
           [
             { Params.enter_risky_min = 2.0; exit_safe_min = 1.0 };
             { Params.enter_risky_min = 1.0; exit_safe_min = 0.5 };
           ])
  in
  let chain4 = Scale.params_exn ~n:4 in
  let configs =
    [
      ("case study", params, [ 1; 2 ]); ("case study", params, [ 2 ]);
      ("N=3", chain3, [ 1; 3 ]); ("N=3", chain3, [ 2; 3 ]);
      ("N=4", chain4, [ 1; 2; 3; 4 ]); ("N=4", chain4, [ 4 ]);
    ]
  in
  let sorted (a : Automaton.t) =
    { a with Automaton.locations = List.sort compare a.Automaton.locations }
  in
  List.iter
    (fun (what, params, initiators) ->
      let config = { Multi.params; initiators } in
      let n = Params.n params in
      let same label a b =
        Alcotest.(check bool)
          (Fmt.str "%s %a: %s" what Fmt.(Dump.list int) initiators label)
          true (a = b)
      in
      let dual index = index < n && List.mem index initiators in
      same "supervisor" (Multi.supervisor config)
        (Pattern_ref.multi_supervisor config);
      List.iter
        (fun lease ->
          let tag = if lease then "" else " (no lease)" in
          let built = Multi.system ~lease config
          and reference = Pattern_ref.multi_system ~lease config in
          same ("system name" ^ tag) built.System.name reference.System.name;
          List.iteri
            (fun idx (b, r) ->
              let label = Fmt.str "automaton %s%s" b.Automaton.name tag in
              if idx > 0 && dual idx then same label (sorted b) (sorted r)
              else same label b r)
            (List.combine built.System.automata reference.System.automata);
          for index = 1 to n do
            let b = Multi.entity ~lease config ~index
            and r = Pattern_ref.entity ~lease config ~index in
            let label = Fmt.str "entity %d%s" index tag in
            if dual index then same label (sorted b) (sorted r)
            else same label b r
          done)
        [ true; false ])
    configs

let suite =
  [
    ( "core.multi",
      [
        Alcotest.test_case "config validation" `Quick test_config_validation;
        Alcotest.test_case "constraint check" `Quick test_constraint_check;
        Alcotest.test_case "per-initiator c3" `Quick
          test_constraint_catches_low_t_req;
        Alcotest.test_case "system builds" `Quick test_system_builds;
        Alcotest.test_case "wellformed" `Quick test_wellformed;
        Alcotest.test_case "simulation safe (both initiators)" `Quick
          test_simulation_safe;
        QCheck_alcotest.to_alcotest prop_multi_safe;
        Alcotest.test_case "mc bounded clean" `Slow test_mc_bounded_clean;
        Alcotest.test_case "mc finds no-lease breach" `Quick
          test_mc_finds_no_lease_violation;
        Alcotest.test_case "builders = reference" `Quick
          test_builders_equal_reference;
      ] );
  ]
