(* Executor semantics: continuous evolution, forced (invariant-boundary)
   transitions, eager urgency, event transport, time-block and zeno
   detection. The ventilator of Fig. 2 doubles as the acceptance test for
   boundary handling. *)

open Pte_hybrid

let system_of automata = System.make ~name:"test" automata

let test_ventilator_period () =
  (* Fig. 2: 0.3 m of travel at 0.1 m/s = 3 s per stroke *)
  let vent = Pte_tracheotomy.Ventilator.stand_alone in
  let exec = Executor.create (system_of [ vent ]) in
  Executor.run exec ~until:12.5;
  let transitions =
    Trace.transitions_of (Executor.trace exec) ~automaton:"vent-standalone"
  in
  (* H starts at 0 in PumpOut: immediate flip, then flips every 3 s:
     ~0, 3, 6, 9, 12 -> 5 transitions by t=12.5 *)
  Alcotest.(check int) "stroke count" 5 (List.length transitions);
  List.iteri
    (fun i (time, _, _, _) ->
      let expected = 3.0 *. Float.of_int i in
      if Float.abs (time -. expected) > 0.01 then
        Alcotest.failf "stroke %d at %.4f, expected %.1f" i time expected)
    transitions

let test_ventilator_height_bounds () =
  let vent = Pte_tracheotomy.Ventilator.stand_alone in
  let exec = Executor.create (system_of [ vent ]) in
  for _ = 1 to 8000 do
    Executor.step exec;
    let h = Executor.value_of exec "vent-standalone" "Hvent" in
    if h < -1e-6 || h > 0.3 +. 1e-6 then
      Alcotest.failf "height out of bounds: %g at t=%g" h (Executor.time exec)
  done

let test_eager_fires_at_guard () =
  let a =
    Automaton.make ~name:"timer" ~vars:[ "c" ]
      ~locations:
        [ Location.make ~flow:(Flow.clocks [ "c" ]) "Wait";
          Location.make ~flow:(Flow.clocks [ "c" ]) "Done" ]
      ~edges:
        [ Edge.make ~guard:[ Guard.atom "c" Guard.Ge 2.0 ]
            ~reset:(Reset.set "c" 0.0) ~src:"Wait" ~dst:"Done" () ]
      ~initial_location:"Wait" ()
  in
  let exec = Executor.create (system_of [ a ]) in
  Executor.run exec ~until:1.9;
  Alcotest.(check string) "still waiting" "Wait" (Executor.location_of exec "timer");
  Executor.run exec ~until:2.1;
  Alcotest.(check string) "fired" "Done" (Executor.location_of exec "timer")

let test_instant_chain () =
  (* zero-dwell dispatch locations collapse within one instant *)
  let a =
    Automaton.make ~name:"chain" ~vars:[]
      ~locations:[ Location.make "A"; Location.make "B"; Location.make "C" ]
      ~edges:
        [ Edge.make ~src:"A" ~dst:"B" (); Edge.make ~src:"B" ~dst:"C" () ]
      ~initial_location:"A" ()
  in
  let exec = Executor.create (system_of [ a ]) in
  Executor.step exec;
  Alcotest.(check string) "chained to C" "C" (Executor.location_of exec "chain")

let test_time_block_detected () =
  (* invariant hits its boundary with no enabled egress *)
  let a =
    Automaton.make ~name:"stuck" ~vars:[ "c" ]
      ~locations:
        [ Location.make ~flow:(Flow.clocks [ "c" ])
            ~invariant:[ Guard.atom "c" Guard.Le 1.0 ] "Trap" ]
      ~edges:[] ~initial_location:"Trap" ()
  in
  let exec = Executor.create (system_of [ a ]) in
  match Executor.run exec ~until:2.0 with
  | () -> Alcotest.fail "expected Time_block"
  | exception Executor.Time_block { automaton = "stuck"; _ } -> ()

let test_zeno_detected () =
  let a =
    Automaton.make ~name:"zeno" ~vars:[]
      ~locations:[ Location.make "A"; Location.make "B" ]
      ~edges:[ Edge.make ~src:"A" ~dst:"B" (); Edge.make ~src:"B" ~dst:"A" () ]
      ~initial_location:"A" ()
  in
  let exec = Executor.create (system_of [ a ]) in
  match Executor.step exec with
  | () -> Alcotest.fail "expected Zeno"
  | exception Executor.Zeno _ -> ()

let talker_listener () =
  let talker =
    Automaton.make ~name:"talker" ~vars:[ "c" ]
      ~locations:
        [ Location.make ~flow:(Flow.clocks [ "c" ]) "Idle";
          Location.make ~flow:(Flow.clocks [ "c" ]) "Sent" ]
      ~edges:
        [ Edge.make ~guard:[ Guard.atom "c" Guard.Ge 1.0 ]
            ~label:(Label.Send "go") ~src:"Idle" ~dst:"Sent" () ]
      ~initial_location:"Idle" ()
  in
  let listener =
    Automaton.make ~name:"listener" ~vars:[]
      ~locations:[ Location.make "Waiting"; Location.make "Got"; Location.make "Deaf" ]
      ~edges:
        [ Edge.make ~label:(Label.Recv_lossy "go") ~src:"Waiting" ~dst:"Got" () ]
      ~initial_location:"Waiting" ()
  in
  (talker, listener)

let test_event_delivery () =
  let talker, listener = talker_listener () in
  let exec = Executor.create (system_of [ talker; listener ]) in
  Executor.run exec ~until:1.5;
  Alcotest.(check string) "delivered" "Got" (Executor.location_of exec "listener")

let test_event_loss_via_router () =
  let talker, listener = talker_listener () in
  let exec = Executor.create (system_of [ talker; listener ]) in
  Executor.set_router exec (fun ~time:_ ~sender:_ ~root:_ ~receiver:_ ->
      Executor.Lose);
  Executor.run exec ~until:1.5;
  Alcotest.(check string) "lost" "Waiting" (Executor.location_of exec "listener");
  let lost =
    Trace.count (Executor.trace exec) (fun e ->
        match e.Trace.event with Trace.Message_lost _ -> true | _ -> false)
  in
  Alcotest.(check int) "loss recorded" 1 lost

let test_event_delayed_delivery () =
  let talker, listener = talker_listener () in
  let exec = Executor.create (system_of [ talker; listener ]) in
  Executor.set_router exec (fun ~time:_ ~sender:_ ~root:_ ~receiver:_ ->
      Executor.Deliver 0.5);
  Executor.run exec ~until:1.3;
  Alcotest.(check string) "in flight" "Waiting" (Executor.location_of exec "listener");
  Executor.run exec ~until:1.6;
  Alcotest.(check string) "arrived" "Got" (Executor.location_of exec "listener")

let test_event_ignored_when_not_listening () =
  let talker, listener = talker_listener () in
  (* move the listener into a location with no matching receive edge *)
  let listener = { listener with Automaton.initial_location = "Deaf" } in
  let exec = Executor.create (system_of [ talker; listener ]) in
  Executor.run exec ~until:1.5;
  Alcotest.(check string) "ignored" "Deaf" (Executor.location_of exec "listener");
  let ignored =
    Trace.count (Executor.trace exec) (fun e ->
        match e.Trace.event with
        | Trace.Message_delivered { consumed = false; _ } -> true
        | _ -> false)
  in
  Alcotest.(check int) "drop recorded" 1 ignored

let test_inject_stimulus () =
  let _, listener = talker_listener () in
  let exec = Executor.create (system_of [ listener ]) in
  let consumed = Executor.inject exec ~receiver:"listener" ~root:"go" in
  Alcotest.(check bool) "consumed" true consumed;
  Alcotest.(check string) "moved" "Got" (Executor.location_of exec "listener")

let test_dwell_time_and_set_value () =
  let a =
    Automaton.make ~name:"plain" ~vars:[ "x" ]
      ~locations:[ Location.make "L" ]
      ~edges:[] ~initial_location:"L" ()
  in
  let exec = Executor.create (system_of [ a ]) in
  Executor.run exec ~until:0.5;
  Alcotest.(check bool) "dwell ~0.5" true
    (Float.abs (Executor.dwell_time exec "plain" -. 0.5) < 1e-6);
  Executor.set_value exec "plain" "x" 42.0;
  Alcotest.(check (float 0.0)) "set_value" 42.0
    (Executor.value_of exec "plain" "x")

let test_forced_transition_flag () =
  (* a Delayed edge never fires on its own; only the invariant boundary
     forces it, and the executor must flag that *)
  let a =
    Automaton.make ~name:"delayed" ~vars:[ "c" ]
      ~locations:
        [ Location.make ~flow:(Flow.clocks [ "c" ])
            ~invariant:[ Guard.atom "c" Guard.Le 1.0 ] "Hold";
          Location.make ~flow:(Flow.clocks [ "c" ]) "Out" ]
      ~edges:
        [ Edge.make ~urgency:Edge.Delayed
            ~guard:[ Guard.atom "c" Guard.Ge 0.5 ] ~src:"Hold" ~dst:"Out" () ]
      ~initial_location:"Hold" ()
  in
  let exec = Executor.create (system_of [ a ]) in
  Executor.run exec ~until:2.0;
  Alcotest.(check string) "left at boundary" "Out" (Executor.location_of exec "delayed");
  let forced_at =
    List.filter_map
      (fun (e : Trace.entry) ->
        match e.Trace.event with
        | Trace.Transition { forced = true; _ } -> Some e.Trace.time
        | _ -> None)
      (Executor.trace exec)
  in
  match forced_at with
  | [ t ] -> Alcotest.(check bool) "at c=1" true (Float.abs (t -. 1.0) < 0.01)
  | _ -> Alcotest.failf "expected exactly one forced transition"

let test_ode_integration_accuracy () =
  (* exponential decay x' = -x from 1: after 2 s, x = e^-2; Euler at 1 ms
     should land within 0.2% *)
  let a =
    Automaton.make ~name:"decay" ~vars:[ "x" ]
      ~locations:
        [ Location.make
            ~flow:(Flow.Ode (fun _t v -> [ ("x", -.Valuation.get v "x") ]))
            "Run" ]
      ~edges:[] ~initial_location:"Run" ~initial_values:[ ("x", 1.0) ] ()
  in
  let exec = Executor.create (system_of [ a ]) in
  Executor.run exec ~until:2.0;
  let x = Executor.value_of exec "decay" "x" in
  let exact = exp (-2.0) in
  if Float.abs (x -. exact) /. exact > 2e-3 then
    Alcotest.failf "Euler drift: %.6f vs %.6f" x exact

(* ---- revocable scheduling: the primitive behind the event-driven
        ARQ transport ---- *)

let idle_system () =
  let a =
    Automaton.make ~name:"idle" ~vars:[]
      ~locations:[ Location.make "A" ]
      ~edges:[] ~initial_location:"A" ()
  in
  system_of [ a ]

let test_schedule_and_cancel () =
  let exec = Executor.create (idle_system ()) in
  let fired = ref [] in
  let note name (_ : Executor.t) = fired := name :: !fired in
  let _t1 = Executor.schedule exec ~at:0.5 (note "first") in
  let t2 = Executor.schedule exec ~at:0.7 (note "second") in
  let _t3 = Executor.schedule exec ~at:0.9 (note "third") in
  Executor.cancel exec t2;
  Executor.run exec ~until:1.0;
  Alcotest.(check (list string)) "cancelled timer skipped, order kept"
    [ "first"; "third" ] (List.rev !fired);
  (* cancelling an already-fired or already-cancelled token is a no-op *)
  Executor.cancel exec t2;
  (* a timer scheduled in the past fires at the current instant *)
  let _t4 = Executor.schedule exec ~at:0.0 (note "late") in
  Executor.step exec;
  Alcotest.(check (list string)) "past-due timer fires now"
    [ "first"; "third"; "late" ]
    (List.rev !fired)

let test_timer_chain_reschedules () =
  (* a callback arming its own successor is exactly the retransmission
     pattern; each link of the chain must fire on the same timeline *)
  let exec = Executor.create (idle_system ()) in
  let fired_at = ref [] in
  let rec again exec0 =
    fired_at := Executor.time exec0 :: !fired_at;
    if List.length !fired_at < 3 then
      ignore (Executor.schedule exec0 ~at:(Executor.time exec0 +. 0.25) again)
  in
  ignore (Executor.schedule exec ~at:0.25 again);
  Executor.run exec ~until:1.0;
  Alcotest.(check int) "chained three times" 3 (List.length !fired_at);
  List.iteri
    (fun i t ->
      let expected = 0.25 *. Float.of_int (i + 1) in
      if Float.abs (t -. expected) > 0.01 then
        Alcotest.failf "link %d fired at %.4f, expected %.2f" i t expected)
    (List.rev !fired_at)

let test_timer_delivers_now () =
  (* a timer callback can hand an event to an automaton at its instant —
     the delivery half of a Deferred routing decision *)
  let _, listener = talker_listener () in
  let exec = Executor.create (system_of [ listener ]) in
  ignore
    (Executor.schedule exec ~at:0.4 (fun exec0 ->
         ignore (Executor.deliver_now exec0 ~receiver:"listener" ~root:"go")));
  Executor.run exec ~until:0.3;
  Alcotest.(check string) "not yet" "Waiting"
    (Executor.location_of exec "listener");
  Executor.run exec ~until:0.5;
  Alcotest.(check string) "timer delivered" "Got"
    (Executor.location_of exec "listener")

let test_schedule_rejects_non_finite () =
  (* regression: a NaN/infinite due time would sit at the head of the
     timeline and never fire (Float.max nan now is nan), silently
     wedging its exchange — reject it at the API edge like set_rate *)
  let exec = Executor.create (idle_system ()) in
  List.iter
    (fun at ->
      match Executor.schedule exec ~at (fun _ -> ()) with
      | _ -> Alcotest.failf "schedule accepted due time %g" at
      | exception Invalid_argument _ -> ())
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_zeno_blames_timer_owner () =
  (* a timer callback that re-arms itself at the same instant is a Zeno
     chain; the diagnostic must name the automaton the timer was armed
     for, not the anonymous "<timer>" *)
  let exec = Executor.create (idle_system ()) in
  let rec storm exec0 =
    ignore
      (Executor.schedule exec0 ~owner:"culprit" ~at:(Executor.time exec0)
         storm)
  in
  ignore (Executor.schedule exec ~owner:"culprit" ~at:0.1 storm);
  match Executor.run exec ~until:1.0 with
  | () -> Alcotest.fail "expected Zeno"
  | exception Executor.Zeno { automaton; _ } ->
      Alcotest.(check string) "blames the owner" "culprit" automaton

let test_sampler_catches_up () =
  (* with dt > sample_period the old one-period bump fell permanently
     behind [now], so every later step emitted a stale sample burst;
     the sampler must instead record once per due step and jump its
     next deadline past [now] *)
  let a =
    Automaton.make ~name:"clk" ~vars:[ "c" ]
      ~locations:[ Location.make ~flow:(Flow.clocks [ "c" ]) "L" ]
      ~edges:[] ~initial_location:"L" ()
  in
  let config =
    { Executor.default_config with
      dt = 0.3;
      sample_period = 0.1;
      sample_vars = [ ("clk", "c") ];
    }
  in
  let exec = Executor.create ~config (system_of [ a ]) in
  Executor.run exec ~until:1.5;
  let samples =
    List.filter_map
      (fun (e : Trace.entry) ->
        match e.Trace.event with
        | Trace.Sample { value; _ } -> Some (e.Trace.time, value)
        | _ -> None)
      (Executor.trace exec)
  in
  Alcotest.(check int) "one sample per step, no stale burst" 5
    (List.length samples);
  List.iteri
    (fun i (time, value) ->
      let expected = 0.3 *. Float.of_int (i + 1) in
      if Float.abs (time -. expected) > 1e-9 then
        Alcotest.failf "sample %d at t=%g, expected %g" i time expected;
      if Float.abs (value -. expected) > 1e-9 then
        Alcotest.failf "sample %d read %g, expected %g" i value expected)
    samples

let check_same_trace legacy heap =
  Alcotest.(check int) "same trace length" (List.length legacy)
    (List.length heap);
  List.iter2
    (fun (l : Trace.entry) (h : Trace.entry) ->
      if l <> h then
        Alcotest.failf "traces diverge at t=%g" l.Trace.time)
    legacy heap

let test_heap_legacy_traces_identical () =
  (* differential gate behind the whole refactor: the heap queue (with
     tombstone compaction), activity-set stabilization and lazy clocks
     must replay a busy multi-automaton run byte-identically to the
     legacy sorted-list full-scan engine. A storm of self-rescheduling
     timers, each cancelling its previous far-future decoy, crosses the
     compaction threshold many times; the timers fire in the same order
     on both engines. *)
  let run queue =
    let system, _ = Pte_core.Scale.system ~n:3 () in
    let config = { Executor.default_config with max_chain = 1024 } in
    let exec = Executor.create ~config ~queue system in
    let init = Pte_core.Scale.initializer_name in
    let request = Pte_core.Events.stim_request ~initializer_:init in
    let cancel = Pte_core.Events.stim_cancel ~initializer_:init in
    List.iter
      (fun (at, root) ->
        ignore
          (Executor.schedule exec ~at (fun exec0 ->
               ignore (Executor.deliver_now exec0 ~receiver:init ~root))))
      [ (0.5, request); (9.0, cancel); (12.0, request); (40.0, cancel) ];
    let timers = 50 in
    let fired = ref [] in
    let decoys = Array.make timers None in
    let rec arm i period =
      ignore
        (Executor.schedule exec ~at:(Executor.time exec +. period) (fun exec0 ->
             fired := i :: !fired;
             Option.iter (Executor.cancel exec0) decoys.(i);
             decoys.(i) <-
               Some (Executor.schedule exec0 ~at:(Executor.time exec0 +. 3600.0) ignore);
             arm i period))
    in
    for i = 0 to timers - 1 do
      arm i (0.002 +. (0.001 *. Float.of_int i))
    done;
    Executor.run exec ~until:60.0;
    (Executor.trace exec, List.rev !fired, Executor.events_processed exec)
  in
  let heap, heap_fired, heap_events = run `Heap in
  let legacy, legacy_fired, legacy_events = run `Legacy_list in
  check_same_trace legacy heap;
  Alcotest.(check bool) "storm cancels far more than ever lives" true
    (List.length heap_fired > 20 * (2 * 50 + 64));
  Alcotest.(check (list int)) "timers fire in the same order" legacy_fired
    heap_fired;
  Alcotest.(check int) "same events" legacy_events heap_events

(* ---- lazy constant-rate clocks: bit-exact against the full sweep ---- *)

let bits_of valuation =
  List.map (fun (v, x) -> (v, Int64.bits_of_float x)) (Valuation.to_list valuation)

let clock_automaton ?(name = "clk") () =
  Automaton.make ~name ~vars:[ "c" ]
    ~locations:[ Location.make ~flow:(Flow.Rates [ ("c", 0.3) ]) "L" ]
    ~edges:[] ~initial_location:"L" ()

let test_halted_lazy_does_not_advance () =
  let run queue =
    let exec = Executor.create ~queue (system_of [ clock_automaton () ]) in
    Executor.run exec ~until:1.0;
    Executor.halt exec "clk";
    let at_halt = Executor.value_of exec "clk" "c" in
    Executor.run exec ~until:2.0;
    Alcotest.(check int64) "frozen while halted"
      (Int64.bits_of_float at_halt)
      (Int64.bits_of_float (Executor.value_of exec "clk" "c"));
    Executor.restart exec "clk";
    Executor.run exec ~until:2.5;
    Executor.value_of exec "clk" "c"
  in
  let heap = run `Heap and legacy = run `Legacy_list in
  Alcotest.(check int64) "same value after restart" (Int64.bits_of_float legacy)
    (Int64.bits_of_float heap)

let test_rate_change_next_step () =
  (* 40 steps at rate 1, then 60 at rate 2.5: the replay must add
     0.3 * (dt * rate) per step with the rate of that step *)
  let exec = Executor.create (system_of [ clock_automaton () ]) in
  for _ = 1 to 40 do
    Executor.step exec
  done;
  Executor.set_rate exec "clk" 2.5;
  for _ = 1 to 60 do
    Executor.step exec
  done;
  let expected = ref 0.0 in
  let dt = Executor.default_config.Executor.dt in
  for k = 1 to 100 do
    let rate = if k <= 40 then 1.0 else 2.5 in
    expected := !expected +. (0.3 *. (dt *. rate))
  done;
  Alcotest.(check int64) "bit-exact Euler sum" (Int64.bits_of_float !expected)
    (Int64.bits_of_float (Executor.value_of exec "clk" "c"))

let test_scans_see_members_added_ahead () =
  (* A timer kicks "kicker", whose eager send reaches "relay" one
     stabilization round later, after "flag" has been chased and gone
     quiet. Relay's eager send of "ping" makes the router raise flag
     ahead of the active scan, so flag's eager edge must fire in that
     same round, before the ping lands. "holder" hits its invariant
     mid-sweep and its forced exit sends "pong"; the router restarts
     "ticker" ahead of the sweep into its awake initial location, so
     the sweep must advance it in that step. *)
  let clock = Flow.clocks [ "c" ] in
  let relay_through name ~recv ~send =
    Automaton.make ~name ~vars:[]
      ~locations:[ Location.make "Wait"; Location.make "Send"; Location.make "Done" ]
      ~edges:
        [ Edge.make ~label:(Label.Recv recv) ~src:"Wait" ~dst:"Send" ();
          Edge.make ~label:(Label.Send send) ~src:"Send" ~dst:"Done" () ]
      ~initial_location:"Wait" ()
  in
  let kicker = relay_through "kicker" ~recv:"kick" ~send:"go" in
  let relay = relay_through "relay" ~recv:"go" ~send:"ping" in
  let flag =
    Automaton.make ~name:"flag" ~vars:[ "f" ]
      ~locations:[ Location.make "Idle"; Location.make "Flagged"; Location.make "Heard" ]
      ~edges:
        [ Edge.make ~guard:[ Guard.atom "f" Guard.Ge 1.0 ] ~src:"Idle" ~dst:"Flagged" ();
          Edge.make ~label:(Label.Recv "ping") ~src:"Idle" ~dst:"Heard" () ]
      ~initial_location:"Idle" ()
  in
  let holder =
    Automaton.make ~name:"holder" ~vars:[ "c" ]
      ~locations:
        [ Location.make ~flow:clock ~invariant:[ Guard.atom "c" Guard.Le 1.0 ] "Hold";
          Location.make ~flow:clock "Out" ]
      ~edges:
        [ Edge.make ~urgency:Edge.Delayed ~label:(Label.Send "pong") ~src:"Hold"
            ~dst:"Out" () ]
      ~initial_location:"Hold" ()
  in
  let ticker =
    Automaton.make ~name:"ticker" ~vars:[ "c" ]
      ~locations:
        [ Location.make ~flow:clock ~invariant:[ Guard.atom "c" Guard.Le 100.0 ] "Tick";
          Location.make ~flow:clock "Rest" ]
      ~edges:
        [ Edge.make ~guard:[ Guard.atom "c" Guard.Ge 0.2 ] ~src:"Tick" ~dst:"Rest" ();
          Edge.make ~label:(Label.Recv "pong") ~src:"Tick" ~dst:"Tick" () ]
      ~initial_location:"Tick" ()
  in
  let run queue =
    let exec =
      Executor.create ~queue (system_of [ kicker; relay; flag; holder; ticker ])
    in
    Executor.set_router exec (fun ~time:_ ~sender:_ ~root ~receiver ->
        (match (root, receiver) with
        | "ping", "flag" -> Executor.set_value exec "flag" "f" 1.0
        | "pong", _ -> Executor.restart exec "ticker"
        | _ -> ());
        Executor.Deliver 0.0);
    ignore
      (Executor.schedule exec ~at:0.5 (fun exec0 ->
           ignore (Executor.deliver_now exec0 ~receiver:"kicker" ~root:"kick")));
    Executor.run exec ~until:1.5;
    ( Executor.trace exec,
      Executor.location_of exec "flag",
      Int64.bits_of_float (Executor.value_of exec "ticker" "c") )
  in
  let heap, flag_at, ticker_c = run `Heap in
  let legacy, legacy_flag_at, legacy_ticker_c = run `Legacy_list in
  check_same_trace legacy heap;
  Alcotest.(check string) "flag chased before the ping lands" "Flagged" flag_at;
  Alcotest.(check string) "same as the full scan" legacy_flag_at flag_at;
  Alcotest.(check int64) "restarted ticker swept in the same step"
    legacy_ticker_c ticker_c

(* One member of a random mixed system: lazy locations (one with a
   Delayed edge, one listing a variable twice, one frozen), an
   invariant location whose forced exit sends mid-sweep, an eager
   location and an ODE location. *)
let mixed_automaton ~name ~initial (c : float array) =
  let open Guard in
  let send root = Label.Send root and recv root = Label.Recv root in
  Automaton.make ~name ~vars:[ "x"; "y"; "z" ]
    ~locations:
      [ Location.make ~flow:(Flow.Rates [ ("x", 1.0); ("y", c.(0)) ]) "L1";
        Location.make
          ~flow:(Flow.Rates [ ("y", 2.0); ("z", 0.3); ("y", -0.75) ])
          "L2";
        Location.make ~flow:(Flow.Rates [ ("x", 1.0); ("z", -0.5) ])
          ~invariant:[ "x" <=. c.(1) ] "Inv";
        Location.make ~flow:(Flow.clocks [ "y" ]) "Eg";
        Location.make
          ~flow:
            (Flow.Ode
               (fun _ v -> [ ("z", 0.1 -. (0.2 *. Valuation.get v "z")); ("x", 0.5) ]))
          "Ode";
        Location.make "Frozen" ]
    ~edges:
      [ Edge.make ~urgency:Edge.Delayed ~guard:[ "x" >=. c.(2) ] ~src:"L1"
          ~dst:"Inv" ();
        Edge.make ~label:(recv "a") ~reset:(Reset.set "x" 0.0) ~src:"L1"
          ~dst:"Inv" ();
        Edge.make ~label:(Label.Recv_lossy "b") ~guard:[ "x" >=. 0.5 ] ~src:"L1"
          ~dst:"L2" ();
        Edge.make ~label:(recv "a") ~guard:[ "y" <=. c.(3) +. 1.0 ] ~src:"L2"
          ~dst:"Eg" ();
        Edge.make ~label:(Label.Recv_lossy "b") ~src:"L2" ~dst:"Ode" ();
        Edge.make ~urgency:Edge.Delayed ~guard:[ "x" >=. 0.0 ] ~label:(send "b")
          ~src:"Inv" ~dst:"L1" ();
        Edge.make ~label:(Label.Recv_lossy "b") ~src:"Inv" ~dst:"L2" ();
        Edge.make ~guard:[ "y" >=. c.(3) ] ~reset:(Reset.set "y" 0.0)
          ~label:(send "a") ~src:"Eg" ~dst:"L1" ();
        Edge.make ~label:(recv "a") ~src:"Ode" ~dst:"L1" ();
        Edge.make ~guard:[ "x" >=. c.(4) ] ~reset:(Reset.set "x" 0.0) ~src:"Ode"
          ~dst:"Inv" ();
        Edge.make ~label:(Label.Recv_lossy "b") ~src:"Frozen" ~dst:"Eg" () ]
    ~initial_location:initial
    ~initial_values:[ ("x", c.(5)); ("y", c.(6)) ]
    ()

let mixed_locations = [| "L1"; "L2"; "Inv"; "Eg"; "Ode"; "Frozen" |]

type mixed_op =
  | Set_rate of int * float
  | Halt of int
  | Restart of int
  | Set_value of int * string * float
  | Inject of int * string

type mixed_case = {
  members : (int * float array) list;  (* initial location, constants *)
  ops : (int * mixed_op) list;  (* applied before the given step *)
  sampled : (int * string) list;
  period : float;
  steps : int;
}

let gen_mixed_case =
  let open QCheck.Gen in
  let member =
    pair (int_bound 5)
      (map Array.of_list
         (flatten_l
            [ float_range (-0.5) 2.0; float_range 0.2 1.5; float_range 0.0 3.0;
              float_range 0.1 1.0; float_range 0.2 2.0; float_range 0.0 0.2;
              float_range 0.0 1.0 ]))
  in
  int_range 2 5 >>= fun n ->
  let who = int_bound (n - 1) in
  let op =
    oneof
      [ map2 (fun i r -> Set_rate (i, r)) who (float_range 0.5 2.0);
        map (fun i -> Halt i) who;
        map (fun i -> Restart i) who;
        map3 (fun i v x -> Set_value (i, v, x)) who (oneofl [ "x"; "y"; "z" ])
          (float_range (-0.5) 2.0);
        map2 (fun i r -> Inject (i, r)) who (oneofl [ "a"; "b" ]) ]
  in
  int_range 100 600 >>= fun steps ->
  map4
    (fun members ops sampled period -> { members; ops; sampled; period; steps })
    (list_repeat n member)
    (list_size (int_bound 12) (pair (int_bound (steps - 1)) op))
    (list_size (int_bound 4) (pair who (oneofl [ "x"; "y"; "z" ])))
    (float_range 0.02 0.5)

let print_mixed_case c =
  let op = function
    | Set_rate (i, r) -> Printf.sprintf "set_rate a%d %g" i r
    | Halt i -> Printf.sprintf "halt a%d" i
    | Restart i -> Printf.sprintf "restart a%d" i
    | Set_value (i, v, x) -> Printf.sprintf "set_value a%d %s %g" i v x
    | Inject (i, r) -> Printf.sprintf "inject a%d %s" i r
  in
  Printf.sprintf "%d steps; members [%s]; ops [%s]; sampled [%s] every %g"
    c.steps
    (String.concat "; "
       (List.map
          (fun (l, k) ->
            Printf.sprintf "%s %s" mixed_locations.(l)
              (String.concat "," (Array.to_list (Array.map string_of_float k))))
          c.members))
    (String.concat "; " (List.map (fun (s, o) -> Printf.sprintf "@%d %s" s (op o)) c.ops))
    (String.concat "; " (List.map (fun (i, v) -> Printf.sprintf "a%d.%s" i v) c.sampled))
    c.period

(* Run [c] on one engine: the trace (or the exception that ended the
   run), the work count and every final valuation as raw float bits. *)
let run_mixed queue c =
  let names = List.mapi (fun i _ -> Printf.sprintf "a%d" i) c.members in
  let system =
    system_of
      (List.mapi
         (fun i (l, k) ->
           mixed_automaton ~name:(Printf.sprintf "a%d" i)
             ~initial:mixed_locations.(l) k)
         c.members)
  in
  let config =
    { Executor.default_config with
      dt = 0.01;
      sample_vars = List.map (fun (i, v) -> (Printf.sprintf "a%d" i, v)) c.sampled;
      sample_period = c.period }
  in
  let exec = Executor.create ~config ~queue system in
  (* reads every valuation on each send — mid-sweep on a forced exit —
     routes on the raw bits of what it read, and on some sends writes
     or restarts one automaton, adding it to the active or awake set
     ahead of or behind the scan in progress *)
  let n = List.length names in
  Executor.set_router exec (fun ~time:_ ~sender:_ ~root:_ ~receiver:_ ->
      let sum =
        List.fold_left
          (fun acc name ->
            List.fold_left (fun acc v -> acc +. Executor.value_of exec name v) acc
              [ "x"; "y"; "z" ])
          0.0 names
      in
      let bits = Int64.to_int (Int64.bits_of_float sum) in
      let target = List.nth names ((bits lsr 3) mod n) in
      if bits land 4 <> 0 then Executor.set_value exec target "y" 5.0
      else if bits land 0x300 = 0 then Executor.restart exec target;
      match bits land 3 with
      | 0 -> Executor.Lose
      | 1 -> Executor.Deliver 0.0
      | 2 -> Executor.Deliver 0.03
      | _ -> Executor.Deliver_many [ 0.0; 0.02 ]);
  let apply = function
    | Set_rate (i, r) -> Executor.set_rate exec (List.nth names i) r
    | Halt i -> Executor.halt exec (List.nth names i)
    | Restart i -> Executor.restart exec (List.nth names i)
    | Set_value (i, v, x) -> Executor.set_value exec (List.nth names i) v x
    | Inject (i, r) -> ignore (Executor.inject exec ~receiver:(List.nth names i) ~root:r)
  in
  let outcome =
    match
      for s = 0 to c.steps - 1 do
        List.iter (fun (at, o) -> if at = s then apply o) c.ops;
        Executor.step exec
      done
    with
    | () -> Ok ()
    | exception e -> Error (Printexc.to_string e)
  in
  ( outcome,
    Executor.trace exec,
    Executor.events_processed exec,
    List.map (fun name -> (name, bits_of (Executor.valuation_of exec name))) names )

let prop_lazy_matches_full_sweep =
  QCheck.Test.make ~name:"lazy clocks = full sweep, bit for bit" ~count:150
    (QCheck.make ~print:print_mixed_case gen_mixed_case)
    (fun c -> run_mixed `Heap c = run_mixed `Legacy_list c)

let test_trace_sink_streams () =
  let seen = ref 0 in
  let vent = Pte_tracheotomy.Ventilator.stand_alone in
  let exec =
    Executor.create ~trace_sink:(fun _ -> incr seen) (system_of [ vent ])
  in
  Executor.run exec ~until:7.0;
  Alcotest.(check bool) "sink saw entries" true (!seen >= 3);
  Alcotest.(check int) "sink count = trace length" !seen
    (List.length (Executor.trace exec))

let suite =
  [
    ( "hybrid.executor",
      [
        Alcotest.test_case "ventilator 3s strokes (Fig 2)" `Quick
          test_ventilator_period;
        Alcotest.test_case "ventilator height bounded" `Quick
          test_ventilator_height_bounds;
        Alcotest.test_case "eager fires at guard" `Quick test_eager_fires_at_guard;
        Alcotest.test_case "instant chains" `Quick test_instant_chain;
        Alcotest.test_case "time-block detected" `Quick test_time_block_detected;
        Alcotest.test_case "zeno detected" `Quick test_zeno_detected;
        Alcotest.test_case "event delivery" `Quick test_event_delivery;
        Alcotest.test_case "event loss via router" `Quick test_event_loss_via_router;
        Alcotest.test_case "delayed delivery" `Quick test_event_delayed_delivery;
        Alcotest.test_case "ignored when not listening" `Quick
          test_event_ignored_when_not_listening;
        Alcotest.test_case "inject stimulus" `Quick test_inject_stimulus;
        Alcotest.test_case "dwell time / set_value" `Quick
          test_dwell_time_and_set_value;
        Alcotest.test_case "forced transitions flagged" `Quick
          test_forced_transition_flag;
        Alcotest.test_case "ODE integration accuracy" `Quick
          test_ode_integration_accuracy;
        Alcotest.test_case "schedule / cancel tokens" `Quick
          test_schedule_and_cancel;
        Alcotest.test_case "timer chain reschedules itself" `Quick
          test_timer_chain_reschedules;
        Alcotest.test_case "timer delivers at its instant" `Quick
          test_timer_delivers_now;
        Alcotest.test_case "schedule rejects non-finite due times" `Quick
          test_schedule_rejects_non_finite;
        Alcotest.test_case "zeno blames the timer owner" `Quick
          test_zeno_blames_timer_owner;
        Alcotest.test_case "sampler catches up when dt > period" `Quick
          test_sampler_catches_up;
        Alcotest.test_case "heap and legacy-list traces identical" `Quick
          test_heap_legacy_traces_identical;
        Alcotest.test_case "halted lazy clock does not advance" `Quick
          test_halted_lazy_does_not_advance;
        Alcotest.test_case "rate change takes effect next step" `Quick
          test_rate_change_next_step;
        Alcotest.test_case "scans visit members added ahead" `Quick
          test_scans_see_members_added_ahead;
        QCheck_alcotest.to_alcotest prop_lazy_matches_full_sweep;
        Alcotest.test_case "trace sink streams" `Quick test_trace_sink_streams;
      ] );
  ]
