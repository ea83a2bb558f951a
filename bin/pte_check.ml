(* `pte-check`: verify Theorem 1's conditions c1-c7 for a configuration,
   or synthesize one from safety requirements.

     dune exec bin/pte_check.exe                      # the case study
     dune exec bin/pte_check.exe -- --t-enter-2 3     # break c5
     dune exec bin/pte_check.exe -- --synthesize a,b,c --run 15 *)

open Cmdliner

let override value replacement = match replacement with Some v -> v | None -> value

(* Per-transport worst-case latency vs the Theorem-1 delay budget, on a
   probe star with the default channel delays (the emulation's): the
   1.93 s / 2.0 s numbers of DESIGN §8 and the synthesized schedule's
   bound of §10, reproducible from the CLI. *)
let report_transports p =
  let budget = Pte_core.Constraints.max_delay_budget p in
  let probe =
    Pte_net.Star.create ~base:p.Pte_core.Params.supervisor
      ~remotes:(Pte_core.Pattern.remotes p)
      ~loss_kind:Pte_net.Loss.Perfect
      ~rng:(Pte_util.Rng.create 0) ()
  in
  let frame_delay = Pte_net.Star.worst_frame_delay probe in
  let reliable =
    Pte_net.Transport.worst_case_latency Pte_net.Transport.default_config
      ~frame_delay
  in
  let scheduled =
    match
      Pte_sched.Synth.synthesize
        { Pte_sched.Synth.default_policy with budget = Some budget }
        ~links:(Pte_net.Star.schedule_links probe)
    with
    | Ok sched -> Ok (Pte_sched.Schedule.worst_case_latency sched)
    | Error e -> Error (Pte_sched.Synth.error_to_string e)
  in
  Fmt.pr "Theorem-1 delay budget: %.3f s (c1-c7 under message delay)@." budget;
  let row label = function
    | Ok wcl ->
        Fmt.pr "  %-24s worst-case %.3f s  slack %+.3f s@." label wcl
          (Pte_core.Constraints.delay_slack p ~delay:wcl);
        wcl <= budget
    | Error msg ->
        Fmt.pr "  %-24s %s@." label msg;
        false
  in
  let ok_bare = row "bare" (Ok frame_delay) in
  let ok_rel = row "reliable (default)" (Ok reliable) in
  let ok_sched = row "scheduled (synthesized)" scheduled in
  exit (if ok_bare && ok_rel && ok_sched then 0 else 1)

(* The loss × k × hold watchdog sweep of DESIGN §11: exercise candidate
   degraded-safe-mode parameterizations against scripted blackouts and
   print the synthesized (k, hold), or fail when none qualifies. *)
let report_degraded_sweep p ~workers ~max_false_trips =
  let config = Pte_tracheotomy.Degraded_synth.default_config p in
  Fmt.pr "degraded watchdog sweep: losses %a, k %a, hold %a, blackouts %a@."
    Fmt.(list ~sep:comma (fmt "%g"))
    config.Pte_tracheotomy.Degraded_synth.losses
    Fmt.(list ~sep:comma int)
    config.Pte_tracheotomy.Degraded_synth.ks
    Fmt.(list ~sep:comma (fmt "%g"))
    config.Pte_tracheotomy.Degraded_synth.holds
    Fmt.(
      list ~sep:comma (fun ppf (start, duration) ->
          pf ppf "%gs+%gs" start duration))
    config.Pte_tracheotomy.Degraded_synth.blackouts;
  let cells, choice =
    Pte_tracheotomy.Degraded_synth.synthesize ?workers ~max_false_trips config
  in
  List.iter
    (fun cell -> Fmt.pr "  %a@." Pte_tracheotomy.Degraded.pp_sweep_cell cell)
    cells;
  match choice with
  | Some c ->
      Fmt.pr "synthesized watchdog: %a@." Pte_tracheotomy.Degraded.pp_choice c;
      exit 0
  | None ->
      Fmt.pr "no (k, hold) pair qualifies@.";
      exit 1

(* The rare-event certification engine (DESIGN §12): SPRT screen, then
   importance splitting over fault-plan severity. Prints per-cell
   stopping verdicts, splitting levels and the joint upper bound; exits
   0 only when the with-lease design certifies the target AND the
   without-lease baseline fails to (the case study's expected shape). *)
let report_certify ~target ~confidence ~minutes ~particles ~stages ~screen
    ~min_effective ~seed ~workers =
  let module C = Pte_tracheotomy.Certify in
  let base = C.default in
  let config =
    {
      base with
      C.target;
      confidence;
      min_effective;
      horizon = minutes *. 60.0;
      screen = (if screen then base.C.screen else None);
      split =
        { base.C.split with Pte_rare.Split.particles; max_stages = stages };
      seed;
      workers;
    }
  in
  (match C.validate config with
  | Ok () -> ()
  | Error e ->
      Fmt.epr "pte-check: %s@." e;
      exit Cmd.Exit.cli_error);
  let report = C.run ~config () in
  Fmt.pr "%a@." C.pp_report report;
  exit (C.exit_code report)

let check t_wait t_fb t_req t_enter_1 t_run_1 t_exit_1 t_enter_2 t_run_2
    t_exit_2 synthesize run_time transports degraded_sweep workers
    max_false_trips certify target confidence minutes particles stages
    no_screen min_effective seed =
  match synthesize with
  | Some names ->
      let entity_names = String.split_on_char ',' names in
      let n = List.length entity_names in
      if n < 2 then begin
        Fmt.epr "need at least two comma-separated entity names@.";
        exit 2
      end;
      let r =
        {
          (Pte_core.Synthesis.default_requirements ~entity_names
             ~safeguards:
               (List.init (n - 1) (fun _ ->
                    { Pte_core.Params.enter_risky_min = 2.0; exit_safe_min = 1.0 })))
          with
          Pte_core.Synthesis.initializer_run = run_time;
        }
      in
      (match Pte_core.Synthesis.synthesize r with
      | Ok p ->
          Fmt.pr "%a@.@.%a@." Pte_core.Params.pp p Pte_core.Constraints.pp_report
            (Pte_core.Constraints.check p)
      | Error e ->
          Fmt.epr "synthesis failed: %a@." Pte_core.Synthesis.pp_error e;
          exit 1)
  | None ->
      let base = Pte_core.Params.case_study in
      let e1 = base.Pte_core.Params.entities.(0) in
      let e2 = base.Pte_core.Params.entities.(1) in
      let p =
        {
          base with
          Pte_core.Params.t_wait_max = override base.Pte_core.Params.t_wait_max t_wait;
          t_fb_min = override base.Pte_core.Params.t_fb_min t_fb;
          t_req_max = override base.Pte_core.Params.t_req_max t_req;
          entities =
            [|
              { e1 with
                Pte_core.Params.t_enter_max = override e1.Pte_core.Params.t_enter_max t_enter_1;
                t_run_max = override e1.Pte_core.Params.t_run_max t_run_1;
                t_exit = override e1.Pte_core.Params.t_exit t_exit_1 };
              { e2 with
                Pte_core.Params.t_enter_max = override e2.Pte_core.Params.t_enter_max t_enter_2;
                t_run_max = override e2.Pte_core.Params.t_run_max t_run_2;
                t_exit = override e2.Pte_core.Params.t_exit t_exit_2 };
            |];
        }
      in
      if transports then report_transports p;
      if degraded_sweep then report_degraded_sweep p ~workers ~max_false_trips;
      if certify then
        report_certify ~target ~confidence ~minutes ~particles ~stages
          ~screen:(not no_screen) ~min_effective ~seed ~workers;
      Fmt.pr "%a@.@." Pte_core.Params.pp p;
      let outcomes = Pte_core.Constraints.check p in
      Fmt.pr "%a@." Pte_core.Constraints.pp_report outcomes;
      exit (if Pte_core.Constraints.all_ok outcomes then 0 else 1)

let cmd =
  let opt_f name doc = Arg.(value & opt (some float) None & info [ name ] ~docv:"S" ~doc) in
  let synthesize =
    Arg.(
      value
      & opt (some string) None
      & info [ "synthesize" ] ~docv:"NAMES"
          ~doc:"Synthesize constants for the comma-separated PTE chain instead of checking.")
  in
  let run_time =
    Arg.(value & opt float 20.0 & info [ "run" ] ~docv:"S" ~doc:"Initializer run time for --synthesize.")
  in
  let transports =
    Arg.(
      value & flag
      & info [ "transports" ]
          ~doc:
            "Report the worst-case latency and remaining Theorem-1 slack of \
             every transport mode (bare, reliable defaults, synthesized \
             schedule) instead of the c1-c7 report; exit 1 if any mode \
             overshoots the budget.")
  in
  let degraded_sweep =
    Arg.(
      value & flag
      & info [ "degraded-sweep" ]
          ~doc:
            "Sweep degraded-safe-mode watchdog candidates (k, hold) against \
             scripted channel blackouts over a grid of background loss \
             levels, classify every trip as justified or false, and print \
             the synthesized pair; exit 1 when no pair detects every \
             blackout without false trips.")
  in
  let workers =
    Arg.(
      value
      & opt (some int) None
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker processes for --degraded-sweep (default: all cores).")
  in
  let max_false_trips =
    Arg.(
      value
      & opt int 0
      & info [ "max-false-trips" ] ~docv:"N"
          ~doc:
            "False-trip budget for --degraded-sweep: a (k, hold) pair still \
             qualifies with up to $(docv) trips outside the blackout \
             windows, summed over the sweep (availability given away, never \
             safety).")
  in
  let certify =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "Run the rare-event certification engine on the case study: an \
             SPRT screen of the violation rate, then importance splitting \
             over fault-plan severity bounding it far below what fixed \
             replicate counts can see. Exit 0 only when the with-lease \
             design certifies the target bound and the without-lease \
             baseline fails to.")
  in
  let target =
    Arg.(
      value & opt float 1e-6
      & info [ "target" ] ~docv:"P"
          ~doc:"Violation-rate bound to certify (with --certify).")
  in
  let confidence =
    Arg.(
      value & opt float 0.99
      & info [ "confidence" ] ~docv:"C"
          ~doc:"Joint confidence of the certificate (with --certify).")
  in
  let minutes =
    Arg.(
      value & opt float 30.0
      & info [ "certify-minutes" ] ~docv:"MIN"
          ~doc:"Trial horizon in minutes (with --certify).")
  in
  let particles =
    Arg.(
      value & opt int 64
      & info [ "particles" ] ~docv:"N"
          ~doc:"Splitting population per stage (with --certify).")
  in
  let stages =
    Arg.(
      value & opt int 16
      & info [ "stages" ] ~docv:"N"
          ~doc:"Splitting stage budget (with --certify).")
  in
  let no_screen =
    Arg.(
      value & flag
      & info [ "no-screen" ]
          ~doc:"Skip the SPRT screen and go straight to splitting.")
  in
  let min_effective =
    Arg.(
      value & opt float 1e6
      & info [ "min-effective" ] ~docv:"N"
          ~doc:
            "Effective-trial floor below which a reached bound is reported \
             but not certified (with --certify).")
  in
  let cseed =
    Arg.(
      value & opt int 9300
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Master seed for --certify (split per phase and particle).")
  in
  let doc = "check Theorem 1's conditions c1-c7 or synthesize a configuration" in
  Cmd.v
    (Cmd.info "pte-check" ~doc)
    Term.(
      const check
      $ opt_f "t-wait" "Override T_wait."
      $ opt_f "t-fb" "Override T_fb,0."
      $ opt_f "t-req" "Override T_req,N."
      $ opt_f "t-enter-1" "Override the ventilator's T_enter."
      $ opt_f "t-run-1" "Override the ventilator's T_run."
      $ opt_f "t-exit-1" "Override the ventilator's T_exit."
      $ opt_f "t-enter-2" "Override the laser's T_enter."
      $ opt_f "t-run-2" "Override the laser's T_run."
      $ opt_f "t-exit-2" "Override the laser's T_exit."
      $ synthesize $ run_time $ transports $ degraded_sweep $ workers
      $ max_false_trips $ certify $ target $ confidence $ minutes $ particles
      $ stages $ no_screen $ min_effective $ cseed)

let () = exit (Cmd.eval cmd)
