(** Assembly of the laser-tracheotomy wireless CPS emulation (Fig. 7).

    Entities: the supervisor computer with its wired SpO2 sensor (ξ0),
    the ventilator (Participant ξ1, the pattern automaton elaborated with
    A′vent), and the surgeon-operated laser-scalpel (Initializer ξ2).
    They communicate over a ZigBee-like star network under constant WiFi
    interference. The patient closes the physical loop. *)

open Pte_hybrid

type config = {
  params : Pte_core.Params.t;
  lease : bool;
  loss : Pte_net.Loss.kind;
  e_ton : float;  (** E(Ton), seconds — paper: 30. *)
  e_toff : float;  (** E(Toff), seconds — paper: 18 or 6. *)
  horizon : float;  (** trial length, seconds — paper: 30 minutes. *)
  dwell_bound : float;
      (** Rule 1 bound for the trial — paper: 60 s ("holding breath for
          <= 1 minute is always safe"). *)
  spo2_threshold : float;  (** Θ_SpO2 — paper: 92 %. *)
  seed : int;
  dt : float;  (** executor step. *)
  mac_retries : int;
      (** 802.15.4 MAC retransmissions per frame (the paper's TMote-Sky
          radios retransmit at the MAC layer; 0 disables). *)
  faults : Pte_faults.Plan.t;
      (** Scripted fault plan injected on top of the stochastic loss
          model (deterministic packet tampering, crashes, clock drift).
          [Pte_faults.Plan.empty] leaves the trial untouched. *)
  transport : Pte_net.Transport.mode;
      (** [`Bare] (default) is the paper's single-shot radio;
          [`Reliable _] adds ACK/retransmission, and {!build} then
          rechecks Theorem 1 with the retransmission budget folded into
          the message-delay terms. [`Scheduled _] is the time-triggered
          mode: {!build} fills an unset synthesis budget with the
          Theorem-1 delay budget ({!Pte_core.Constraints.max_delay_budget}),
          synthesizes the round schedule against the star, and rejects
          any schedule whose worst-case latency breaks c1–c7. *)
  degraded : Degraded.config option;
      (** Supervisor degraded-safe-mode ([None] disables): stop
          granting/renewing leases after [k] consecutive feedback
          losses. *)
}

let default =
  {
    params = Pte_core.Params.case_study;
    lease = true;
    loss = Pte_net.Loss.wifi_interference ~average_loss:0.25;
    e_ton = 30.0;
    e_toff = 18.0;
    horizon = 1800.0;
    dwell_bound = 60.0;
    spo2_threshold = 92.0;
    seed = 42;
    dt = 0.01;
    mac_retries = 0;
    faults = Pte_faults.Plan.empty;
    transport = `Bare;
    degraded = None;
  }

type built = {
  config : config;
  engine : Pte_sim.Engine.t;
  system : System.t;
  net : Pte_net.Star.t;
  spec : Pte_core.Rules.t;
  laser : string;
  ventilator : string;
  spo2_stats : Pte_util.Stats.Online.t;
  faults_handle : Pte_faults.Injector.handle;
  transport : Pte_net.Transport.t;
  degraded : Degraded.handle option;
}

(* the supervisor's, the ventilator's and the laser's names *)
let names params =
  ( params.Pte_core.Params.supervisor,
    params.Pte_core.Params.entities.(0).Pte_core.Params.name,
    (Pte_core.Params.initializer_ params).Pte_core.Params.name )

let check_faults (config : config) =
  let supervisor, ventilator, laser = names config.params in
  Pte_faults.Plan.check_entities config.faults ~links:[ ventilator; laser ]
    ~automata:[ supervisor; ventilator; laser; Patient.name ]

let build (config : config) =
  let params = config.params in
  let supervisor_name, ventilator_name, laser_name = names params in
  (match check_faults config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Emulation.build: " ^ msg));
  let ventilator = Ventilator.participant ~lease:config.lease params in
  let laser = Pte_core.Pattern.initializer_ ~lease:config.lease params in
  let supervisor = Pte_core.Pattern.supervisor params in
  let system =
    System.make ~name:"laser-tracheotomy"
      [ supervisor; ventilator; laser; Patient.automaton ]
  in
  let rng = Pte_util.Rng.create config.seed in
  (* a loss profile in the fault plan overlays a time-varying channel:
     the configured model covers the span before the first step, each
     step then switches the whole star to its level *)
  let loss_kind =
    match config.faults.Pte_faults.Plan.loss_profile with
    | [] -> config.loss
    | steps ->
        let kind_of loss =
          if loss <= 0.0 then Pte_net.Loss.Perfect
          else if loss >= 1.0 then Pte_net.Loss.Bernoulli 1.0
            (* a total blackout, which wifi_interference cannot realize *)
          else Pte_net.Loss.wifi_interference ~average_loss:loss
        in
        Pte_net.Loss.Profile
          ((0.0, config.loss)
          :: List.map
               (fun (s : Pte_faults.Plan.loss_step) -> (s.at, kind_of s.loss))
               steps)
  in
  let net =
    Pte_net.Star.create ~base:supervisor_name
      ~remotes:[ ventilator_name; laser_name ]
      ~loss_kind ~mac_retries:config.mac_retries ~rng ()
  in
  (* A non-bare transport is only admissible when Theorem 1 survives
     its worst-case latency: recheck c1–c7 with the mode's closed-form
     bound added to the message-delay terms. *)
  let recheck_theorem1 ~what budget =
    let outcomes =
      Pte_core.Constraints.check_with_delay params ~delay:budget
    in
    if not (Pte_core.Constraints.all_ok outcomes) then
      invalid_arg
        (Fmt.str
           "Emulation.build: %s (worst-case latency %.3f s) breaks Theorem \
            1: %s"
           what budget
           (String.concat ", "
              (List.map Pte_core.Constraints.condition_name
                 (Pte_core.Constraints.violated outcomes))))
  in
  let config =
    match config.transport with
    | `Bare -> config
    | `Reliable tcfg ->
        (match Pte_net.Transport.validate tcfg with
        | Ok () -> ()
        | Error msg -> invalid_arg ("Emulation.build: " ^ msg));
        recheck_theorem1 ~what:"transport retry budget"
          (Pte_net.Transport.worst_case_latency tcfg
             ~frame_delay:(Pte_net.Star.worst_frame_delay net));
        config
    | `Scheduled policy ->
        (* an unset synthesis budget means "whatever Theorem 1 affords":
           fill it here, where the parameters are known, so the
           synthesizer itself enforces the bound *)
        let policy =
          match policy.Pte_sched.Synth.budget with
          | Some _ -> policy
          | None ->
              {
                policy with
                Pte_sched.Synth.budget =
                  Some (Pte_core.Constraints.max_delay_budget params);
              }
        in
        let sched =
          match
            Pte_sched.Synth.synthesize policy
              ~links:(Pte_net.Star.schedule_links net)
          with
          | Ok sched -> sched
          | Error e ->
              invalid_arg
                ("Emulation.build: " ^ Pte_sched.Synth.error_to_string e)
        in
        (* the budget is a bisection estimate, so recheck the concrete
           schedule against c1–c7 directly — soundness never rests on
           the estimate alone *)
        recheck_theorem1 ~what:"synthesized round schedule"
          (Pte_sched.Schedule.worst_case_latency sched);
        { config with transport = `Scheduled policy }
    | `Adaptive acfg ->
        (match Pte_net.Transport.validate_adaptive acfg with
        | Ok () -> ()
        | Error msg -> invalid_arg ("Emulation.build: " ^ msg));
        (* the trial starts in the healthy sub-mode, so its bound must
           hold outright; escalation candidates are rechecked at switch
           time by the admission callback installed below *)
        (match acfg.Pte_net.Transport.healthy with
        | `Bare -> ()
        | `Reliable tcfg ->
            recheck_theorem1 ~what:"adaptive healthy retry budget"
              (Pte_net.Transport.worst_case_latency tcfg
                 ~frame_delay:(Pte_net.Star.worst_frame_delay net)));
        (* fill unset budgets with the Theorem-1 delay budget, exactly
           as for a static `Scheduled mode: escalation-time synthesis
           then already refuses over-budget schedules, and the c1–c7
           recheck below stays the final word *)
        let budget = Pte_core.Constraints.max_delay_budget params in
        let degraded =
          match acfg.Pte_net.Transport.degraded.Pte_sched.Synth.budget with
          | Some _ -> acfg.Pte_net.Transport.degraded
          | None ->
              { acfg.Pte_net.Transport.degraded with
                Pte_sched.Synth.budget = Some budget }
        in
        let acfg =
          match acfg.Pte_net.Transport.budget with
          | Some _ -> { acfg with Pte_net.Transport.degraded }
          | None ->
              { acfg with
                Pte_net.Transport.degraded;
                budget = Some budget }
        in
        { config with transport = `Adaptive acfg }
  in
  let exec_config = { Executor.default_config with dt = config.dt } in
  let engine =
    Pte_sim.Engine.create ~config:exec_config ~net
      ~transport:config.transport ~seed:(config.seed + 1) system
  in
  Patient.couple_to_ventilator engine ~ventilator:ventilator_name;
  Oximeter.connect engine ~supervisor:supervisor_name
    ~threshold:config.spo2_threshold ();
  Surgeon.connect engine ~laser:laser_name ~e_ton:config.e_ton
    ~e_toff:config.e_toff;
  (* record the patient's SpO2 trajectory envelope *)
  let spo2_stats = Pte_util.Stats.Online.create () in
  let exec = Pte_sim.Engine.executor engine in
  let spo2 = Executor.var_ref exec Patient.name Patient.spo2_var in
  Pte_sim.Engine.add_process engine ~period:0.5 ~name:"spo2-probe"
    (fun _engine ->
      Pte_util.Stats.Online.add spo2_stats (Executor.get exec spo2));
  let spec =
    Pte_core.Rules.of_params_with_bounds params ~dwell_bound:config.dwell_bound
  in
  (* scripted faults: packet tampering on the links, node faults on the
     engine (no-ops for the empty plan) *)
  let faults_handle = Pte_faults.Injector.install config.faults net in
  Pte_faults.Runtime.install config.faults engine;
  (* the degraded-safe-mode watchdog comes after the oximeter, so its
     forced denial overwrites the fresh approval sample each instant *)
  let degraded =
    Option.map
      (fun dcfg -> Degraded.install engine ~supervisor:supervisor_name dcfg)
      config.degraded
  in
  let transport =
    match Pte_sim.Engine.transport engine with
    | Some t -> t
    | None -> assert false (* the engine always gets ~net here *)
  in
  (* the safe-switch protocol's Theorem-1 recheck: a candidate mode is
     admissible iff c1–c7 survive its worst-case latency (the net layer
     cannot depend on the core, so the check is injected) *)
  Pte_net.Transport.set_admit transport (fun ~candidate_latency ->
      Pte_core.Constraints.satisfies_with_delay params
        ~delay:candidate_latency);
  {
    config;
    engine;
    system;
    net;
    spec;
    laser = laser_name;
    ventilator = ventilator_name;
    spo2_stats;
    faults_handle;
    transport;
    degraded;
  }

let run built =
  Pte_sim.Engine.run built.engine ~until:built.config.horizon;
  Pte_sim.Engine.trace built.engine
