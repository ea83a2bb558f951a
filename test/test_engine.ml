(* Simulation engine: processes, stimuli, wired sensors, couplings. *)

open Pte_hybrid

let listener_automaton =
  Automaton.make ~name:"listener" ~vars:[ "x" ]
    ~locations:[ Location.make "Idle"; Location.make "Active" ]
    ~edges:
      [
        Edge.make ~label:(Label.Recv "go") ~src:"Idle" ~dst:"Active" ();
        Edge.make ~label:(Label.Recv "stop") ~src:"Active" ~dst:"Idle" ();
      ]
    ~initial_location:"Idle" ()

let mk_engine ?(automata = [ listener_automaton ]) () =
  Pte_sim.Engine.create ~seed:7 (System.make ~name:"t" automata)

let test_run_advances_time () =
  let engine = mk_engine () in
  Pte_sim.Engine.run engine ~until:2.5;
  Alcotest.(check bool) "time ~2.5" true
    (Float.abs (Pte_sim.Engine.time engine -. 2.5) < 0.01)

let test_process_period () =
  let engine = mk_engine () in
  let fired = ref 0 in
  Pte_sim.Engine.add_process engine ~period:0.5 ~name:"probe"
    (fun _ -> incr fired);
  Pte_sim.Engine.run engine ~until:2.0;
  (* fires at 0.0, 0.5, 1.0, 1.5, 2.0 *)
  Alcotest.(check bool) "about 5 firings" true (!fired >= 4 && !fired <= 6)

let test_inject () =
  let engine = mk_engine () in
  Pte_sim.Engine.inject engine ~receiver:"listener" ~root:"go";
  Alcotest.(check string) "moved" "Active"
    (Pte_sim.Engine.location_of engine "listener")

let test_one_shot () =
  let engine = mk_engine () in
  Pte_sim.Scenario.one_shot engine ~at:1.0 ~automaton:"listener" ~armed_in:"Idle"
    ~root:"go";
  Pte_sim.Engine.run engine ~until:0.9;
  Alcotest.(check string) "not yet" "Idle"
    (Pte_sim.Engine.location_of engine "listener");
  Pte_sim.Engine.run engine ~until:1.2;
  Alcotest.(check string) "fired once" "Active"
    (Pte_sim.Engine.location_of engine "listener")

let test_exponential_stimulus_rearms () =
  (* with a tiny mean the stimulus keeps firing each time the automaton
     returns to the armed location *)
  let engine = mk_engine () in
  Pte_sim.Scenario.exponential_stimulus engine ~mean:0.05 ~automaton:"listener"
    ~armed_in:"Idle" ~root:"go" ();
  Pte_sim.Scenario.exponential_stimulus engine ~mean:0.05 ~automaton:"listener"
    ~armed_in:"Active" ~root:"stop" ();
  Pte_sim.Engine.run engine ~until:10.0;
  let flips =
    Pte_sim.Metrics.entries (Pte_sim.Engine.trace engine) ~automaton:"listener"
      ~location:"Active"
  in
  Alcotest.(check bool) "many cycles" true (flips > 10)

let test_stimulus_only_in_armed_location () =
  let engine = mk_engine () in
  (* armed in Active, but the automaton stays Idle: never fires *)
  Pte_sim.Scenario.exponential_stimulus engine ~mean:0.01 ~automaton:"listener"
    ~armed_in:"Active" ~root:"stop" ();
  Pte_sim.Engine.run engine ~until:2.0;
  Alcotest.(check string) "untouched" "Idle"
    (Pte_sim.Engine.location_of engine "listener")

let two_plants () =
  let plant name =
    Automaton.make ~name ~vars:[ "level"; "mirror" ]
      ~locations:
        [ Location.make ~flow:(Flow.Rates [ ("level", 1.0) ]) "Run" ]
      ~edges:[] ~initial_location:"Run" ()
  in
  (plant "source", plant "sink")

let test_wired_sensor () =
  let src, dst = two_plants () in
  let engine = mk_engine ~automata:[ src; dst ] () in
  Pte_sim.Scenario.wired_sensor engine ~period:0.25
    ~from:("source", "level") ~to_:("sink", "mirror") ();
  Pte_sim.Engine.run engine ~until:2.0;
  let copied = Pte_sim.Engine.value_of engine "sink" "mirror" in
  let actual = Pte_sim.Engine.value_of engine "source" "level" in
  Alcotest.(check bool)
    (Fmt.str "mirror %.3f tracks level %.3f" copied actual)
    true
    (Float.abs (copied -. actual) <= 0.3)

let test_wired_sensor_transform () =
  let src, dst = two_plants () in
  let engine = mk_engine ~automata:[ src; dst ] () in
  Pte_sim.Scenario.wired_sensor engine ~period:0.1 ~from:("source", "level")
    ~to_:("sink", "mirror")
    ~transform:(fun _rng v -> if v > 1.0 then 1.0 else 0.0)
    ();
  Pte_sim.Engine.run engine ~until:0.5;
  Alcotest.(check (float 0.0)) "below threshold" 0.0
    (Pte_sim.Engine.value_of engine "sink" "mirror");
  Pte_sim.Engine.run engine ~until:1.5;
  Alcotest.(check (float 0.0)) "above threshold" 1.0
    (Pte_sim.Engine.value_of engine "sink" "mirror")

let test_coupling_every_step () =
  let src, dst = two_plants () in
  let engine = mk_engine ~automata:[ src; dst ] () in
  Pte_sim.Scenario.coupling engine ~automaton:"sink" ~var:"mirror" (fun engine ->
      2.0 *. Pte_sim.Engine.value_of engine "source" "level");
  Pte_sim.Engine.run engine ~until:1.0;
  let mirror = Pte_sim.Engine.value_of engine "sink" "mirror" in
  Alcotest.(check bool) "doubled" true (Float.abs (mirror -. 2.0) < 0.05)

let test_fork_rng_deterministic () =
  let e1 = mk_engine () and e2 = mk_engine () in
  let r1 = Pte_sim.Engine.fork_rng e1 and r2 = Pte_sim.Engine.fork_rng e2 in
  Alcotest.(check (float 0.0)) "same seed, same fork" (Pte_util.Rng.float r1)
    (Pte_util.Rng.float r2)

let test_metrics_series () =
  let src, _ = two_plants () in
  let config =
    { Executor.default_config with
      sample_vars = [ ("source", "level") ];
      sample_period = 0.5 }
  in
  let engine =
    Pte_sim.Engine.create ~config ~seed:1 (System.make ~name:"t" [ src ])
  in
  Pte_sim.Engine.run engine ~until:2.0;
  let series =
    Pte_sim.Metrics.series (Pte_sim.Engine.trace engine) ~automaton:"source"
      ~var:"level"
  in
  Alcotest.(check bool) "several samples" true (List.length series >= 4);
  List.iter
    (fun (t, v) ->
      if Float.abs (v -. t) > 0.02 then
        Alcotest.failf "sample (%g, %g) off the level=t line" t v)
    series

let test_misspelt_armed_in () =
  (* a stimulus armed in a location the automaton lacks used to poll,
     unmatched, for the whole run and never fire *)
  let engine = mk_engine () in
  let refused what register =
    match register () with
    | () -> Alcotest.failf "%s accepted armed_in \"Idel\"" what
    | exception Invalid_argument _ -> ()
  in
  refused "exponential_stimulus" (fun () ->
      Pte_sim.Scenario.exponential_stimulus engine ~mean:1.0 ~automaton:"listener"
        ~armed_in:"Idel" ~root:"go" ());
  refused "one_shot" (fun () ->
      Pte_sim.Scenario.one_shot engine ~at:1.0 ~automaton:"listener" ~armed_in:"Idel"
        ~root:"go");
  Pte_sim.Engine.run engine ~until:0.1;
  Alcotest.(check string) "nothing registered" "Idle"
    (Pte_sim.Engine.location_of engine "listener")

let suite =
  [
    ( "sim.engine",
      [
        Alcotest.test_case "run advances time" `Quick test_run_advances_time;
        Alcotest.test_case "process period" `Quick test_process_period;
        Alcotest.test_case "inject" `Quick test_inject;
        Alcotest.test_case "one-shot stimulus" `Quick test_one_shot;
        Alcotest.test_case "exponential stimulus re-arms" `Quick
          test_exponential_stimulus_rearms;
        Alcotest.test_case "stimulus gated by location" `Quick
          test_stimulus_only_in_armed_location;
        Alcotest.test_case "wired sensor" `Quick test_wired_sensor;
        Alcotest.test_case "sensor transform" `Quick test_wired_sensor_transform;
        Alcotest.test_case "per-step coupling" `Quick test_coupling_every_step;
        Alcotest.test_case "fork rng deterministic" `Quick
          test_fork_rng_deterministic;
        Alcotest.test_case "sample series" `Quick test_metrics_series;
        Alcotest.test_case "misspelt armed_in refused" `Quick
          test_misspelt_armed_in;
      ] );
  ]
