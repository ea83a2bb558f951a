(** Schedule a plan's node faults on a simulation engine.

    Crashes become a periodic engine process that halts the entity at
    [at] and reboots it (initial location, initial valuation) after
    [blackout] seconds. Clock drift is applied immediately: the entity's
    flows advance [factor] local seconds per global second, eating into
    the c1–c7 timing margins exactly the way a drifting MCU oscillator
    would. Both fault kinds sit {e outside} the paper's message-loss
    fault model — injecting them shows where Theorem 1's envelope
    actually ends. *)

let install plan engine =
  List.iter
    (function
      | Plan.Clock_drift { entity; factor } ->
          Pte_sim.Engine.set_rate engine entity factor
      | Plan.Crash { entity; at; blackout } ->
          let stage = ref `Waiting in
          let clock = Pte_sim.Engine.clock engine in
          Pte_sim.Engine.add_process engine ~name:(entity ^ "-crash-fault")
            (fun engine ->
              match !stage with
              | `Waiting when clock.now >= at ->
                  Pte_sim.Engine.halt engine entity;
                  stage := `Down
              | `Down when clock.now >= at +. blackout ->
                  Pte_sim.Engine.restart engine entity;
                  stage := `Done
              | _ -> ()))
    plan.Plan.node_faults
