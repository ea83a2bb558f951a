(* The design-pattern automata builders: structural properties, event
   wiring between roles, lease ablation. *)

open Pte_core
open Pte_hybrid

let p = Params.case_study

let test_all_validate () =
  List.iter
    (fun a ->
      match Automaton.validate a with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "%s invalid: %s" a.Automaton.name (String.concat "; " e))
    [
      Pattern.supervisor p;
      Pattern.initializer_ p;
      Pattern.participant p ~index:1;
      Pattern.initializer_ ~lease:false p;
      Pattern.participant ~lease:false p ~index:1;
    ]

let test_system_validates () =
  match System.validate (Pattern.system p) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "system invalid: %s" (String.concat "; " e)

let test_supervisor_locations () =
  let s = Pattern.supervisor p in
  let names = Automaton.location_names s in
  (* Fall-Back + 4 locations per remote entity (grant/lease/send-abort/
     abort) + 2 cancel-chain locations per participant *)
  Alcotest.(check int) "location count" (1 + (4 * 2) + 2) (List.length names);
  List.iter
    (fun required ->
      if not (List.mem required names) then Alcotest.failf "missing %S" required)
    [ "Fall-Back"; "Lease ventilator"; "Lease laser"; "Cancel ventilator";
      "Abort laser" ]

let test_supervisor_all_safe () =
  (* the paper does not partition ξ0's locations; all are safe *)
  let s = Pattern.supervisor p in
  Alcotest.(check (list string)) "no risky" [] (Automaton.risky_locations s)

let test_roles_risky_sets () =
  let init = Pattern.initializer_ p in
  Alcotest.(check bool) "Risky Core risky" true (Automaton.is_risky init "Risky Core");
  Alcotest.(check bool) "Exiting 1 risky" true (Automaton.is_risky init "Exiting 1");
  Alcotest.(check bool) "Exiting 2 safe" false (Automaton.is_risky init "Exiting 2");
  Alcotest.(check bool) "Entering safe" false (Automaton.is_risky init "Entering");
  Alcotest.(check bool) "Fall-Back safe" false (Automaton.is_risky init "Fall-Back");
  let part = Pattern.participant p ~index:1 in
  Alcotest.(check bool) "participant Risky Core" true
    (Automaton.is_risky part "Risky Core");
  Alcotest.(check bool) "participant Exiting 1" true
    (Automaton.is_risky part "Exiting 1");
  Alcotest.(check bool) "participant L0 safe" false (Automaton.is_risky part "L0")

let test_event_wiring () =
  (* every lossy root listened to by a role is sent by another role *)
  let system = Pattern.system p in
  let sent =
    List.fold_left
      (fun acc a -> Var.Set.union acc (Automaton.emitted_roots a))
      Var.Set.empty system.System.automata
  in
  List.iter
    (fun (a : Automaton.t) ->
      List.iter
        (fun (e : Edge.t) ->
          match e.Edge.label with
          | Some (Label.Recv_lossy root) ->
              if not (Var.Set.mem root sent) then
                Alcotest.failf "%s listens on %s which nobody sends"
                  a.Automaton.name root
          | _ -> ())
        a.Automaton.edges)
    system.System.automata

let test_stimuli_are_reliable_receives () =
  (* the surgeon's stimuli are local, not wireless: plain ? prefix *)
  let init = Pattern.initializer_ p in
  let stim_roots =
    List.filter_map
      (fun (e : Edge.t) ->
        match e.Edge.label with
        | Some (Label.Recv r) -> Some r
        | _ -> None)
      init.Automaton.edges
    |> List.sort_uniq compare
  in
  Alcotest.(check (list string)) "stimuli"
    [ Events.stim_cancel ~initializer_:"laser";
      Events.stim_request ~initializer_:"laser" ]
    stim_roots

let test_lease_ablation () =
  let with_lease = Pattern.initializer_ p in
  let without = Pattern.initializer_ ~lease:false p in
  Alcotest.(check bool) "fewer edges without lease" true
    (List.length without.Automaton.edges < List.length with_lease.Automaton.edges);
  (* the expiry marker only exists with the lease *)
  let has_marker (a : Automaton.t) =
    List.exists
      (fun (e : Edge.t) ->
        e.Edge.label = Some (Label.Internal (Events.to_stop ~entity:"laser")))
      a.Automaton.edges
  in
  Alcotest.(check bool) "marker with lease" true (has_marker with_lease);
  Alcotest.(check bool) "no marker without" false (has_marker without);
  let part = Pattern.participant p ~index:1 in
  let part_no = Pattern.participant ~lease:false p ~index:1 in
  Alcotest.(check bool) "participant ablated too" true
    (List.length part_no.Automaton.edges < List.length part.Automaton.edges)

let test_participant_index_range () =
  Alcotest.check_raises "index 0" (Invalid_argument "participant index 0 out of range 1..1")
    (fun () -> ignore (Pattern.participant p ~index:0));
  Alcotest.check_raises "index N" (Invalid_argument "participant index 2 out of range 1..1")
    (fun () -> ignore (Pattern.participant p ~index:2))

let test_remotes () =
  Alcotest.(check (list string)) "remotes" [ "ventilator"; "laser" ]
    (Pattern.remotes p)

let test_n4_system () =
  (* a longer chain builds and validates *)
  let p4 =
    Synthesis.synthesize_exn
      (Synthesis.default_requirements
         ~entity_names:[ "a"; "b"; "c"; "d" ]
         ~safeguards:
           (List.init 3 (fun _ ->
                { Params.enter_risky_min = 2.0; exit_safe_min = 1.0 })))
  in
  let system = Pattern.system p4 in
  Alcotest.(check int) "4 remotes + supervisor" 5
    (List.length system.System.automata);
  match System.validate system with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid: %s" (String.concat "; " e)

let test_scale_generator () =
  (* the bench-S1 generator: names, synthesis feasibility, assembly *)
  Alcotest.(check (list string)) "chain names" [ "p0001"; "p0002"; "init" ]
    (Scale.entity_names ~n:3);
  (match Scale.entity_names ~n:1 with
  | _ -> Alcotest.fail "n=1 accepted"
  | exception Invalid_argument _ -> ());
  let system, p8 = Scale.system ~n:8 () in
  Alcotest.(check int) "8 remotes + supervisor" 9
    (List.length system.System.automata);
  Alcotest.(check int) "params carry the chain" 8
    (List.length (Pattern.remotes p8));
  match System.validate system with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid: %s" (String.concat "; " e)

let test_dot_export () =
  let dot = Dot.to_string (Pattern.initializer_ p) in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 20 && String.sub dot 0 7 = "digraph");
  Alcotest.(check bool) "mentions Risky Core" true
    (let needle = "Risky Core" in
     let n = String.length needle and h = String.length dot in
     let rec go i = i + n <= h && (String.sub dot i n = needle || go (i + 1)) in
     go 0)

(* The shared chain builders against a verbatim copy of the builders they
   replaced ([Pattern_ref]): the case study and synthesized chains of 3, 4
   and 8, lease on and off, must give [=] automata and systems. *)
let test_builders_equal_reference () =
  let chains =
    ("case study", p)
    :: List.map (fun n -> (Fmt.str "N=%d" n, Scale.params_exn ~n)) [ 3; 4; 8 ]
  in
  List.iter
    (fun (what, params) ->
      let same label a b =
        Alcotest.(check bool) (Fmt.str "%s: %s" what label) true (a = b)
      in
      same "supervisor" (Pattern.supervisor params)
        (Pattern_ref.supervisor params);
      List.iter
        (fun lease ->
          let tag = if lease then "" else " (no lease)" in
          same ("initializer" ^ tag)
            (Pattern.initializer_ ~lease params)
            (Pattern_ref.initializer_ ~lease params);
          same ("system" ^ tag)
            (Pattern.system ~lease params)
            (Pattern_ref.system ~lease params);
          List.iter2
            (fun built reference ->
              same (Fmt.str "automaton %s%s" built.Automaton.name tag) built
                reference)
            (Pattern.system ~lease params).System.automata
            (Pattern_ref.system ~lease params).System.automata)
        [ true; false ])
    chains

let suite =
  [
    ( "core.pattern",
      [
        Alcotest.test_case "roles validate" `Quick test_all_validate;
        Alcotest.test_case "system validates" `Quick test_system_validates;
        Alcotest.test_case "supervisor locations" `Quick test_supervisor_locations;
        Alcotest.test_case "supervisor all safe" `Quick test_supervisor_all_safe;
        Alcotest.test_case "risky partitions" `Quick test_roles_risky_sets;
        Alcotest.test_case "event wiring closed" `Quick test_event_wiring;
        Alcotest.test_case "stimuli reliable" `Quick test_stimuli_are_reliable_receives;
        Alcotest.test_case "lease ablation" `Quick test_lease_ablation;
        Alcotest.test_case "participant index range" `Quick
          test_participant_index_range;
        Alcotest.test_case "remotes" `Quick test_remotes;
        Alcotest.test_case "N=4 system" `Quick test_n4_system;
        Alcotest.test_case "scale generator" `Quick test_scale_generator;
        Alcotest.test_case "dot export" `Quick test_dot_export;
        Alcotest.test_case "builders = reference" `Quick
          test_builders_equal_reference;
      ] );
  ]
