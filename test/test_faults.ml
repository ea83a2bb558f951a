(* The fault-injection subsystem: plan JSON round-trips, injector
   selection semantics, crash/drift node faults, shrinking, and
   (plan, seed) replay determinism of the full trial pipeline. *)

open Pte_faults
module Robustness = Pte_tracheotomy.Robustness

let vocab = Robustness.vocabulary ~horizon:120.0 ()

(* ------------------------------------------------------------------ *)
(* plan DSL: JSON round-trip                                           *)
(* ------------------------------------------------------------------ *)

(* qcheck property: any generated plan survives JSON encode/decode
   structurally intact — the checked-in-artifact contract *)
let prop_plan_json_roundtrip =
  QCheck.Test.make ~name:"fault plans round-trip through JSON" ~count:200
    QCheck.(make ~print:string_of_int Gen.int)
    (fun seed ->
      let plan = Fuzz.random_plan (Pte_util.Rng.create seed) vocab in
      match Plan.of_string (Plan.to_string plan) with
      | Ok plan' -> plan = plan'
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

(* the loss_profile segment rides the same contract: any plan the
   profile-aware fuzzer emits survives encode/decode intact *)
let prop_plan_with_profile_json_roundtrip =
  QCheck.Test.make ~name:"plans with loss profiles round-trip through JSON"
    ~count:200
    QCheck.(make ~print:string_of_int Gen.int)
    (fun seed ->
      let plan =
        Fuzz.random_plan_with_profile (Pte_util.Rng.create seed) vocab
      in
      match Plan.of_string (Plan.to_string plan) with
      | Ok plan' -> plan = plan'
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let test_plan_rejects_garbage () =
  List.iter
    (fun s ->
      match Plan.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [ "{"; "[]"; "{\"packet\": 3}";
      "{\"packet\": [{\"entity\": \"v\"}], \"node\": []}";
      (* loss steps must sit on the timeline with loss in [0, 1] *)
      "{\"loss_profile\": [{\"at\": -1.0, \"loss\": 0.5}]}";
      "{\"loss_profile\": [{\"at\": 3.0, \"loss\": 1.5}]}" ]

(* values no trial can mean are refused where the plan is parsed *)
let test_plan_rejects_out_of_range () =
  List.iter
    (fun (s, why) ->
      match Plan.of_string s with
      | Error e -> Alcotest.(check string) s why e
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [ ( "{\"faults\": []}",
        "plan: unknown key \"faults\" (expected packet, node, loss_profile)" );
      ( "{\"node\": [{\"fault\": \"crash\", \"entity\": \"laser\", \"at\": -1, \"blackout\": 5}]}",
        "plan: crash \"at\" must be >= 0" );
      ( "{\"node\": [{\"fault\": \"crash\", \"entity\": \"laser\", \"at\": 1, \"blackout\": 0}]}",
        "plan: crash \"blackout\" must be > 0" );
      ( "{\"node\": [{\"fault\": \"clock-drift\", \"entity\": \"laser\", \"factor\": 0}]}",
        "plan: clock-drift \"factor\" must be > 0" );
      ( "{\"packet\": [{\"entity\": \"laser\", \"direction\": \"up\", \"occurrence\": 0, \"action\": \"delay\", \"delay\": -0.5}]}",
        "plan: \"delay\" must be >= 0" );
      ( "{\"packet\": [{\"entity\": \"laser\", \"direction\": \"up\", \"occurrence\": 0, \"before\": 1e999, \"action\": \"drop\"}]}",
        "plan: \"before\" must be a finite number" );
      ( "{\"loss_profile\": [{\"at\": 1e999, \"loss\": 0.5}]}",
        "plan: \"at\" must be a finite number" ) ]

(* an entity the emulated system lacks is refused where the plan meets
   the system, not when the executor first touches it *)
let test_plan_entities_checked () =
  let check plan =
    Pte_tracheotomy.Emulation.check_faults
      { Pte_tracheotomy.Emulation.default with faults = plan }
  in
  let refused what plan =
    match check plan with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s accepted" what
  in
  refused "crash on lazer"
    { Plan.empty with node_faults = [ Plan.crash ~entity:"lazer" ~at:1.0 ~blackout:1.0 ] };
  refused "drift on lazer"
    { Plan.empty with node_faults = [ Plan.clock_drift ~entity:"lazer" ~factor:1.1 ] };
  refused "drop on the supervisor, which has no link of its own"
    { Plan.empty with
      packet_faults =
        [ Plan.drop_nth ~entity:"supervisor" ~direction:Plan.Up ~root:"e" 0 ] };
  (match
     Pte_tracheotomy.Emulation.build
       { Pte_tracheotomy.Emulation.default with
         faults =
           { Plan.empty with
             node_faults = [ Plan.crash ~entity:"lazer" ~at:1.0 ~blackout:1.0 ] } }
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "build accepted a crash on lazer");
  Alcotest.(check bool) "the case-study entities fit" true
    (check
       { Plan.empty with
         packet_faults =
           [ Plan.drop_nth ~entity:"laser" ~direction:Plan.Up ~root:"e" 0 ];
         node_faults =
           [ Plan.crash ~entity:"ventilator" ~at:0.0 ~blackout:1.0;
             Plan.clock_drift ~entity:"supervisor" ~factor:0.9 ] }
    = Ok ())

(* every plan the fuzzer, the severity escalation and the shrinker build
   still loads and fits the case-study system *)
let prop_generated_plans_load =
  QCheck.Test.make ~name:"generated plans pass the plan checks" ~count:50
    QCheck.(make ~print:string_of_int Gen.int)
    (fun seed ->
      let rng = Pte_util.Rng.create seed in
      let loads plan =
        match Plan.of_string (Plan.to_string plan) with
        | Error e -> QCheck.Test.fail_reportf "%a: %s" Plan.pp plan e
        | Ok plan' when plan' <> plan ->
            QCheck.Test.fail_reportf "%a changed on reload" Plan.pp plan
        | Ok _ -> (
            match
              Pte_tracheotomy.Emulation.check_faults
                { Pte_tracheotomy.Emulation.default with faults = plan }
            with
            | Ok () -> ()
            | Error e -> QCheck.Test.fail_reportf "%a: %s" Plan.pp plan e)
      in
      let fuzzed = Fuzz.random_plan_with_profile rng vocab in
      loads fuzzed;
      let rec escalate plan n =
        if n > 0 then begin
          let next = Severity.escalate ~crashes:true ~vocab plan rng in
          loads next;
          escalate next (n - 1)
        end
      in
      escalate Plan.empty 6;
      (* keep every fault, so that the shrinker simplifies parameters *)
      let faults (p : Plan.t) =
        List.length p.packet_faults + List.length p.node_faults
        + List.length p.loss_profile
      in
      ignore
        (Shrink.shrink ~max_oracle_calls:60
           ~oracle:(fun p -> loads p; faults p = faults fuzzed)
           fuzzed);
      true)

(* ------------------------------------------------------------------ *)
(* injector semantics on real links                                    *)
(* ------------------------------------------------------------------ *)

let mk_star () =
  Pte_net.Star.create ~base:"base" ~remotes:[ "r1"; "r2" ]
    ~loss_kind:Pte_net.Loss.Perfect
    ~rng:(Pte_util.Rng.create 11)
    ()

let link_of star ~sender ~receiver =
  match Pte_net.Star.link_for star ~sender ~receiver with
  | Some l -> l
  | None -> Alcotest.fail "missing link"

let send link ~time ~root =
  Pte_net.Link.send link ~time ~src:"s" ~dst:"d" ~root

let test_injector_drops_nth () =
  let star = mk_star () in
  let plan =
    { Plan.empty with
      Plan.packet_faults =
        [ Plan.drop_nth ~entity:"r1" ~direction:Plan.Down ~root:"evt_k" 1 ];
      node_faults = [];
    }
  in
  let handle = Injector.install plan star in
  let link = link_of star ~sender:"base" ~receiver:"r1" in
  let outcomes =
    List.map
      (fun root ->
        match send link ~time:1.0 ~root with
        | Pte_net.Link.Deliver _ -> `D
        | Pte_net.Link.Drop _ -> `X
        | Pte_net.Link.Deliver_dup _ -> `Dup)
      [ "evt_k"; "other"; "evt_k"; "evt_k" ]
  in
  (* occurrence index counts only matching frames: the 2nd evt_k dies *)
  Alcotest.(check bool) "only the nth matching frame dropped" true
    (outcomes = [ `D; `D; `X; `D ]);
  Alcotest.(check (array int)) "matched counts every evt_k" [| 3 |]
    (Injector.matched handle);
  Alcotest.(check (array int)) "fired once" [| 1 |] (Injector.fired handle);
  Alcotest.(check bool) "all fired" true (Injector.all_fired handle)

let test_injector_site_selectivity () =
  let star = mk_star () in
  let plan =
    { Plan.empty with
      Plan.packet_faults =
        [ Plan.drop_every ~entity:"r1" ~direction:Plan.Down ~root:"e" ];
      node_faults = [];
    }
  in
  let _handle = Injector.install plan star in
  (* same root on r1's uplink and on r2's downlink is untouched *)
  (match send (link_of star ~sender:"r1" ~receiver:"base") ~time:0.0 ~root:"e" with
  | Pte_net.Link.Deliver _ -> ()
  | _ -> Alcotest.fail "uplink must not be tampered");
  (match send (link_of star ~sender:"base" ~receiver:"r2") ~time:0.0 ~root:"e" with
  | Pte_net.Link.Deliver _ -> ()
  | _ -> Alcotest.fail "r2 must not be tampered");
  match send (link_of star ~sender:"base" ~receiver:"r1") ~time:0.0 ~root:"e" with
  | Pte_net.Link.Drop Pte_net.Loss.Lost_in_air -> ()
  | _ -> Alcotest.fail "r1 downlink must drop"

let test_injector_corrupt_flows_through_crc () =
  let star = mk_star () in
  let plan =
    { Plan.empty with
      Plan.packet_faults =
        [
          Plan.packet ~root:"e" ~entity:"r2" ~direction:Plan.Up
            ~occurrence:Plan.Every Plan.Corrupt;
        ];
      node_faults = [];
    }
  in
  let _handle = Injector.install plan star in
  let link = link_of star ~sender:"r2" ~receiver:"base" in
  for _ = 1 to 20 do
    match send link ~time:0.0 ~root:"e" with
    | Pte_net.Link.Drop Pte_net.Loss.Corrupted -> ()
    | _ -> Alcotest.fail "corrupted frame must die at the CRC"
  done;
  Alcotest.(check int) "CRC discards counted" 20
    (Pte_net.Link.stats link).Pte_net.Link_stats.corrupted

let test_injector_window_and_delay () =
  let star = mk_star () in
  let plan =
    { Plan.empty with
      Plan.packet_faults =
        [
          Plan.packet ~root:"e" ~window:{ Plan.after = 10.0; before = 20.0 }
            ~entity:"r1" ~direction:Plan.Down ~occurrence:Plan.Every
            (Plan.Delay 5.0);
        ];
      node_faults = [];
    }
  in
  let _handle = Injector.install plan star in
  let link = link_of star ~sender:"base" ~receiver:"r1" in
  let arrival_at time =
    match send link ~time ~root:"e" with
    | Pte_net.Link.Deliver { arrival; _ } -> arrival -. time
    | _ -> Alcotest.fail "expected delivery"
  in
  Alcotest.(check bool) "before window: base delay" true (arrival_at 5.0 < 1.0);
  Alcotest.(check bool) "inside window: +5 s" true (arrival_at 15.0 >= 5.0);
  Alcotest.(check bool) "after window: base delay" true (arrival_at 25.0 < 1.0)

let test_injector_duplicate () =
  let star = mk_star () in
  let plan =
    { Plan.empty with
      Plan.packet_faults =
        [
          Plan.packet ~root:"e" ~entity:"r1" ~direction:Plan.Up
            ~occurrence:(Plan.Nth 0) Plan.Duplicate;
        ];
      node_faults = [];
    }
  in
  let _handle = Injector.install plan star in
  match send (link_of star ~sender:"r1" ~receiver:"base") ~time:0.0 ~root:"e" with
  | Pte_net.Link.Deliver_dup { arrivals = a1, a2; _ } ->
      Alcotest.(check bool) "copies ordered" true (a2 > a1)
  | _ -> Alcotest.fail "expected duplicated delivery"

let test_injector_first_fault_shadows () =
  let star = mk_star () in
  let drop = Plan.drop_nth ~entity:"r1" ~direction:Plan.Down ~root:"e" 0 in
  let plan =
    { Plan.empty with
      Plan.packet_faults =
        [ drop; { drop with Plan.action = Plan.Duplicate } ];
      node_faults = [];
    }
  in
  let handle = Injector.install plan star in
  (match send (link_of star ~sender:"base" ~receiver:"r1") ~time:0.0 ~root:"e" with
  | Pte_net.Link.Drop _ -> ()
  | _ -> Alcotest.fail "first fault in plan order must win");
  Alcotest.(check (array int)) "both matched" [| 1; 1 |]
    (Injector.matched handle);
  Alcotest.(check (array int)) "only the first fired" [| 1; 0 |]
    (Injector.fired handle)

(* ------------------------------------------------------------------ *)
(* node faults: crash/restart and clock drift                          *)
(* ------------------------------------------------------------------ *)

let test_crash_and_restart_schedule () =
  let built = Pte_tracheotomy.Emulation.build
      {
        Pte_tracheotomy.Emulation.default with
        horizon = 30.0;
        seed = 3;
        faults =
          { Plan.empty with
            Plan.packet_faults = [];
            node_faults = [ Plan.crash ~entity:"ventilator" ~at:10.0 ~blackout:5.0 ];
          };
      }
  in
  let engine = built.Pte_tracheotomy.Emulation.engine in
  Pte_sim.Engine.run engine ~until:9.0;
  Alcotest.(check bool) "alive before the fault" false
    (Pte_sim.Engine.is_halted engine "ventilator");
  Pte_sim.Engine.run engine ~until:12.0;
  Alcotest.(check bool) "down during the blackout" true
    (Pte_sim.Engine.is_halted engine "ventilator");
  (* while down, the automaton is frozen in place *)
  let loc_down = Pte_sim.Engine.location_of engine "ventilator" in
  Pte_sim.Engine.run engine ~until:14.9;
  Alcotest.(check string) "frozen while down" loc_down
    (Pte_sim.Engine.location_of engine "ventilator");
  Pte_sim.Engine.run engine ~until:16.0;
  Alcotest.(check bool) "rebooted after the blackout" false
    (Pte_sim.Engine.is_halted engine "ventilator")

let test_clock_drift_scales_flows () =
  (* the stand-alone ventilator strokes every 3 s; at half rate its
     pump height advances half as fast *)
  let open Pte_hybrid in
  let system =
    System.make ~name:"drift" [ Pte_tracheotomy.Ventilator.stand_alone ]
  in
  let run rate =
    let exec = Executor.create system in
    Executor.set_rate exec "vent-standalone" rate;
    Executor.run exec ~until:10.0;
    List.length
      (Trace.transitions_of (Executor.trace exec) ~automaton:"vent-standalone")
  in
  let nominal = run 1.0 in
  let slowed = run 0.5 in
  Alcotest.(check bool)
    (Fmt.str "half rate, about half the strokes (%d vs %d)" slowed nominal)
    true
    (slowed < nominal && slowed >= (nominal / 2) - 1)

(* ------------------------------------------------------------------ *)
(* shrinking                                                           *)
(* ------------------------------------------------------------------ *)

let test_shrink_to_culprit () =
  (* a pure oracle: the plan "fails" iff it still drops an evt_cancel
     frame; shrinking must strip everything else *)
  let rng = Pte_util.Rng.create 4 in
  let noise = List.init 4 (fun _ -> Fuzz.random_packet_fault rng vocab) in
  let culprit =
    Plan.packet ~root:"evt_cancel"
      ~window:{ Plan.after = 3.0; before = 90.0 }
      ~entity:"laser" ~direction:Plan.Up ~occurrence:(Plan.Nth 3) Plan.Drop
  in
  let plan =
    { Plan.empty with
      Plan.packet_faults = noise @ [ culprit ];
      node_faults = [ Plan.crash ~entity:"laser" ~at:50.0 ~blackout:20.0 ];
    }
  in
  let oracle (p : Plan.t) =
    List.exists
      (fun (f : Plan.packet_fault) ->
        f.Plan.root = Some "evt_cancel" && f.Plan.action = Plan.Drop)
      p.Plan.packet_faults
  in
  let minimal, calls = Shrink.shrink ~oracle plan in
  Alcotest.(check bool) "still failing" true (oracle minimal);
  Alcotest.(check int) "noise faults removed" 1
    (List.length minimal.Plan.packet_faults);
  Alcotest.(check int) "node faults removed" 0
    (List.length minimal.Plan.node_faults);
  (match minimal.Plan.packet_faults with
  | [ f ] ->
      Alcotest.(check bool) "occurrence simplified to 0" true
        (f.Plan.occurrence = Plan.Nth 0);
      Alcotest.(check bool) "window removed" true (f.Plan.window = None)
  | _ -> assert false);
  Alcotest.(check bool) "bounded oracle budget" true (calls <= 200)

let test_shrink_loss_profile () =
  (* the oracle cares about one thing: an early channel blackout
     (loss >= 0.8 arriving by t = 60). Shrinking must strip the packet
     and node noise, drop the benign steps, and may only pull the
     culprit toward the benign end while the oracle still fails *)
  let rng = Pte_util.Rng.create 17 in
  let plan =
    {
      Plan.packet_faults =
        List.init 3 (fun _ -> Fuzz.random_packet_fault rng vocab);
      node_faults = [ Plan.crash ~entity:"laser" ~at:40.0 ~blackout:10.0 ];
      loss_profile =
        [
          Plan.loss_step ~at:5.0 ~loss:0.2;
          Plan.loss_step ~at:30.0 ~loss:1.0;
          Plan.loss_step ~at:80.0 ~loss:0.1;
        ];
    }
  in
  let oracle (p : Plan.t) =
    List.exists
      (fun (s : Plan.loss_step) -> s.Plan.loss >= 0.8 && s.Plan.at <= 60.0)
      p.Plan.loss_profile
  in
  let minimal, _calls = Shrink.shrink ~oracle plan in
  Alcotest.(check bool) "still failing" true (oracle minimal);
  Alcotest.(check int) "packet noise removed" 0
    (List.length minimal.Plan.packet_faults);
  Alcotest.(check int) "node noise removed" 0
    (List.length minimal.Plan.node_faults);
  match minimal.Plan.loss_profile with
  | [ s ] ->
      Alcotest.(check bool) "the blackout step survives" true
        (s.Plan.loss >= 0.8)
  | l -> Alcotest.failf "expected one surviving step, got %d" (List.length l)

let test_shrink_respects_budget () =
  let rng = Pte_util.Rng.create 9 in
  let plan =
    { Plan.empty with
      Plan.packet_faults = List.init 6 (fun _ -> Fuzz.random_packet_fault rng vocab);
      node_faults = [];
    }
  in
  let calls_seen = ref 0 in
  let _, calls =
    Shrink.shrink ~max_oracle_calls:5
      ~oracle:(fun _ -> incr calls_seen; true)
      plan
  in
  Alcotest.(check bool) "stopped at the budget" true
    (calls <= 5 && !calls_seen <= 5)

(* ------------------------------------------------------------------ *)
(* end-to-end: replay determinism and coverage invariants              *)
(* ------------------------------------------------------------------ *)

let test_artifact_replay_deterministic () =
  let artifact =
    {
      Robustness.plan =
        { Plan.empty with
          Plan.packet_faults =
            [
              Plan.drop_nth ~entity:"ventilator" ~direction:Plan.Down
                ~root:"evt_s_to_ventilator_cancel" 0;
            ];
          node_faults =
            [ Plan.crash ~entity:"ventilator" ~at:40.0 ~blackout:3.0 ];
        };
      trial_seed = 123;
      horizon = 120.0;
      lease = true;
      failures = 0;
    }
  in
  (* byte-identical artifact text, identical trial metrics *)
  let text = Robustness.artifact_to_string artifact in
  let reparsed =
    match Robustness.artifact_of_string text with
    | Ok a -> a
    | Error e -> Alcotest.failf "artifact decode: %s" e
  in
  Alcotest.(check string) "artifact text round-trips" text
    (Robustness.artifact_to_string reparsed);
  let a = Robustness.replay artifact and b = Robustness.replay reparsed in
  Alcotest.(check int) "failures" a.Pte_tracheotomy.Trial.failures
    b.Pte_tracheotomy.Trial.failures;
  Alcotest.(check int) "emissions" a.Pte_tracheotomy.Trial.emissions
    b.Pte_tracheotomy.Trial.emissions;
  Alcotest.(check int) "faults fired" a.Pte_tracheotomy.Trial.faults_fired
    b.Pte_tracheotomy.Trial.faults_fired;
  Alcotest.(check int) "messages" a.Pte_tracheotomy.Trial.messages_sent
    b.Pte_tracheotomy.Trial.messages_sent;
  Alcotest.(check (float 0.0)) "min SpO2" a.Pte_tracheotomy.Trial.min_spo2
    b.Pte_tracheotomy.Trial.min_spo2;
  Alcotest.(check (float 0.0)) "longest pause"
    a.Pte_tracheotomy.Trial.longest_pause b.Pte_tracheotomy.Trial.longest_pause

let test_coverage_small () =
  (* one occurrence, short horizon: every root targeted, the lease
     design never violates, the baseline does *)
  let c = Robustness.coverage ~workers:2 ~occurrences:1 ~horizon:300.0 () in
  Alcotest.(check int) "all roots targeted" c.Robustness.roots_total
    c.Robustness.roots_targeted;
  Alcotest.(check int) "lease design never violates" 0
    c.Robustness.with_lease_violations;
  Alcotest.(check bool) "baseline degrades" true
    (c.Robustness.without_lease_violations > 0);
  Alcotest.(check bool) "most roots exercised" true
    (c.Robustness.roots_exercised * 2 >= c.Robustness.roots_total)

let test_fuzz_finds_and_shrinks () =
  (* the seed/trial count mirror the checked-in artifact's provenance:
     crash faults break the fail-operational assumption, so with-lease
     violations exist and every artifact must replay to >= 1 episode *)
  let report =
    Robustness.fuzz ~horizon:300.0 ~max_oracle_calls:20 ~seed:99 ~trials:6 ()
  in
  Alcotest.(check bool) "found a with-lease violation" true
    (report.Robustness.violating > 0);
  List.iter
    (fun a ->
      Alcotest.(check bool) "artifact reproduces" true
        ((Robustness.replay a).Pte_tracheotomy.Trial.failures > 0);
      Alcotest.(check bool) "artifact is minimal (1 fault)" true
        (List.length a.Robustness.plan.Plan.packet_faults
         + List.length a.Robustness.plan.Plan.node_faults
        <= 2))
    report.Robustness.artifacts

let suite =
  [
    ( "faults.plan",
      [
        QCheck_alcotest.to_alcotest prop_plan_json_roundtrip;
        QCheck_alcotest.to_alcotest prop_plan_with_profile_json_roundtrip;
        Alcotest.test_case "rejects malformed JSON" `Quick
          test_plan_rejects_garbage;
        Alcotest.test_case "rejects out-of-range values" `Quick
          test_plan_rejects_out_of_range;
        Alcotest.test_case "entities checked against the system" `Quick
          test_plan_entities_checked;
        QCheck_alcotest.to_alcotest prop_generated_plans_load;
      ] );
    ( "faults.injector",
      [
        Alcotest.test_case "drops the nth matching frame" `Quick
          test_injector_drops_nth;
        Alcotest.test_case "site selectivity" `Quick
          test_injector_site_selectivity;
        Alcotest.test_case "corruption dies at the CRC" `Quick
          test_injector_corrupt_flows_through_crc;
        Alcotest.test_case "time window + extra delay" `Quick
          test_injector_window_and_delay;
        Alcotest.test_case "duplicate delivers twice" `Quick
          test_injector_duplicate;
        Alcotest.test_case "plan order shadows" `Quick
          test_injector_first_fault_shadows;
      ] );
    ( "faults.node",
      [
        Alcotest.test_case "crash + reboot schedule" `Quick
          test_crash_and_restart_schedule;
        Alcotest.test_case "clock drift scales flows" `Quick
          test_clock_drift_scales_flows;
      ] );
    ( "faults.shrink",
      [
        Alcotest.test_case "strips to the culprit" `Quick test_shrink_to_culprit;
        Alcotest.test_case "strips a loss profile to its blackout" `Quick
          test_shrink_loss_profile;
        Alcotest.test_case "respects the oracle budget" `Quick
          test_shrink_respects_budget;
      ] );
    ( "faults.end_to_end",
      [
        Alcotest.test_case "artifact replay deterministic" `Slow
          test_artifact_replay_deterministic;
        Alcotest.test_case "coverage: lease survives every drop" `Slow
          test_coverage_small;
        Alcotest.test_case "fuzz finds and shrinks violations" `Slow
          test_fuzz_finds_and_shrinks;
      ] );
  ]
