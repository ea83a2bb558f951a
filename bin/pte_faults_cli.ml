(* `pte-faults`: deterministic fault injection against the
   laser-tracheotomy emulation.

     dune exec bin/pte_faults_cli.exe -- inject --plan plan.json
     dune exec bin/pte_faults_cli.exe -- inject --artifact minimal.json
     dune exec bin/pte_faults_cli.exe -- coverage --minutes 10
     dune exec bin/pte_faults_cli.exe -- fuzz --trials 20 --out-dir artifacts

   A plan (or fuzz seed) plus a trial seed replays byte-identically, so
   every failure this tool finds is a checked-in-able artifact. *)

open Cmdliner
module Plan = Pte_faults.Plan
module Robustness = Pte_tracheotomy.Robustness

let setup_logs verbose =
  if verbose then begin
    let reporter =
      let report _src level ~over k msgf =
        msgf (fun ?header:_ ?tags:_ fmt ->
            let k _ = over (); k () in
            Format.kfprintf k Format.err_formatter
              ("[%s] " ^^ fmt ^^ "@.")
              (match level with
              | Logs.Error -> "error"
              | Logs.Warning -> "warn"
              | _ -> "info"))
      in
      { Logs.report }
    in
    Logs.set_reporter reporter;
    Logs.set_level (Some Logs.Warning)
  end

let or_die = function
  | Ok v -> v
  | Error msg ->
      Fmt.epr "pte-faults: %s@." msg;
      exit 2

(* ------------------------------------------------------------------ *)
(* inject subcommand                                                  *)
(* ------------------------------------------------------------------ *)

let run_inject plan_file artifact_file no_lease seed minutes loss_model
    verbose =
  setup_logs verbose;
  let artifact =
    match (plan_file, artifact_file) with
    | Some _, Some _ ->
        or_die (Error "--plan and --artifact are mutually exclusive")
    | None, None -> or_die (Error "one of --plan or --artifact is required")
    | None, Some file -> or_die (Robustness.load_artifact file)
    | Some file, None ->
        let plan = or_die (Plan.load file) in
        {
          Robustness.plan;
          trial_seed = seed;
          horizon = minutes *. 60.0;
          lease = not no_lease;
          failures = 0;
        }
  in
  (* the plan must fit the emulated system before anything runs *)
  or_die
    (Pte_tracheotomy.Emulation.check_faults
       (Robustness.artifact_config artifact));
  Fmt.pr "plan:@.%a@." Plan.pp artifact.Robustness.plan;
  (* a stochastic channel on top of the scripted plan is opt-in: the
     default perfect channel keeps the scripted faults the only loss *)
  let config =
    match loss_model with
    | None -> Robustness.artifact_config artifact
    | Some kind ->
        Fmt.pr "channel: %a@." Pte_net.Loss.pp_kind kind;
        { (Robustness.artifact_config artifact) with
          Pte_tracheotomy.Emulation.loss = kind }
  in
  let result = Pte_tracheotomy.Trial.run config in
  Fmt.pr "trial (seed %d, %gs, lease %b): %a@." artifact.Robustness.trial_seed
    artifact.Robustness.horizon artifact.Robustness.lease
    Pte_tracheotomy.Trial.pp_result result;
  Fmt.pr "faults fired: %d@." result.Pte_tracheotomy.Trial.faults_fired;
  if result.Pte_tracheotomy.Trial.failures > 0 then begin
    List.iter
      (fun v -> Fmt.pr "violation: %a@." Pte_core.Monitor.pp_violation v)
      result.Pte_tracheotomy.Trial.violations;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* coverage subcommand                                                *)
(* ------------------------------------------------------------------ *)

let run_coverage occurrences minutes seed workers out resume transport verbose =
  setup_logs verbose;
  let transport : Pte_net.Transport.mode = transport in
  let c =
    Robustness.coverage ?workers ?checkpoint:out ~resume ~occurrences
      ~horizon:(minutes *. 60.0) ~seed ~transport ()
  in
  Fmt.pr "%a@." Robustness.pp_coverage c;
  if
    c.Robustness.with_lease_violations > 0
    || c.Robustness.roots_targeted < c.Robustness.roots_total
  then exit 1

(* ------------------------------------------------------------------ *)
(* fuzz subcommand                                                    *)
(* ------------------------------------------------------------------ *)

let run_fuzz trials seed minutes no_lease budget out_dir verbose =
  setup_logs verbose;
  let log = if verbose then fun s -> Fmt.epr "[fuzz] %s@." s else ignore in
  let report =
    Robustness.fuzz ~horizon:(minutes *. 60.0) ~lease:(not no_lease)
      ~max_oracle_calls:budget ~log ~seed ~trials ()
  in
  Fmt.pr "%a@." Robustness.pp_fuzz_report report;
  (match out_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      List.iteri
        (fun i a ->
          let path = Filename.concat dir (Fmt.str "counterexample-%02d.json" i) in
          Robustness.save_artifact a path;
          Fmt.pr "wrote %s@." path)
        report.Robustness.artifacts)

(* ------------------------------------------------------------------ *)
(* terms                                                              *)
(* ------------------------------------------------------------------ *)

let seed =
  Arg.(value & opt int 7100 & info [ "seed" ] ~docv:"N" ~doc:"Master seed.")

let minutes =
  Arg.(
    value & opt float 10.0
    & info [ "minutes" ] ~docv:"MIN" ~doc:"Simulated length of each trial.")

let no_lease =
  Arg.(
    value & flag
    & info [ "no-lease" ]
        ~doc:"Run the without-lease baseline instead of the lease design.")

let verbose =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Report progress on stderr.")

let inject_cmd =
  let plan_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "plan" ] ~docv:"FILE" ~doc:"Fault-plan JSON file to inject.")
  in
  let artifact_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "artifact" ] ~docv:"FILE"
          ~doc:
            "Counterexample artifact to replay (carries its own seed, \
             horizon and lease mode).")
  in
  let loss_model =
    Arg.(
      value
      & opt (some Pte_net.Loss.conv) None
      & info [ "loss-model" ] ~docv:"MODEL"
          ~doc:
            "Stochastic channel to run the plan over instead of the default \
             perfect one: $(b,perfect), $(b,wifi:)$(i,avg), \
             $(b,bernoulli:)$(i,p), \
             $(b,ge:)$(i,to_bad,to_good,loss_good,loss_bad) or \
             $(b,interferer:)$(i,period,burst,loss_during,loss_idle).")
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:
         "Run one trial under a fault plan (or replay an artifact); exit 1 \
          if PTE is violated.")
    Term.(
      const run_inject $ plan_file $ artifact_file $ no_lease $ seed $ minutes
      $ loss_model $ verbose)

let coverage_cmd =
  let occurrences =
    Arg.(
      value & opt int 2
      & info [ "occurrences" ] ~docv:"K"
          ~doc:"Target the first $(docv) occurrences of each message root.")
  in
  let workers =
    Arg.(
      value
      & opt (some int) None
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains (default: all available cores).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Append each completed trial to this JSONL checkpoint file.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:"Skip trials already recorded in the $(b,--out) file.")
  in
  let transport =
    Arg.(
      value
      & opt Pte_net.Transport.conv `Bare
      & info [ "transport" ] ~docv:"MODE"
          ~doc:
            "Radio transport the trials run over: $(b,bare) (single-shot \
             sends), $(b,reliable)[:$(i,k=v),...] (event-driven \
             ACK/retransmission; scripted drops are then expected to be \
             recovered) or $(b,scheduled)[:$(i,k=v),...] (time-triggered \
             TDMA rounds with blind retransmissions).")
  in
  Cmd.v
    (Cmd.info "coverage"
       ~doc:
         "Drop every protocol message root x occurrence, with and without \
          lease; print the coverage matrix; exit 1 if the lease design ever \
          violates PTE.")
    Term.(
      const run_coverage $ occurrences $ minutes $ seed $ workers $ out
      $ resume $ transport $ verbose)

let fuzz_cmd =
  let trials =
    Arg.(
      value & opt int 10
      & info [ "trials" ] ~docv:"N" ~doc:"Random plans to generate and run.")
  in
  let budget =
    Arg.(
      value & opt int 60
      & info [ "shrink-budget" ] ~docv:"N"
          ~doc:"Max trial replays the shrinker may spend per counterexample.")
  in
  let out_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "out-dir" ] ~docv:"DIR"
          ~doc:"Write each minimal counterexample artifact into $(docv).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Random fault plans (drops, corruption, delays, duplicates, \
          crashes, clock drift); shrink every violating plan to a minimal \
          replayable artifact.")
    Term.(
      const run_fuzz $ trials $ seed $ minutes $ no_lease $ budget $ out_dir
      $ verbose)

let cmd =
  Cmd.group
    (Cmd.info "pte-faults"
       ~doc:"deterministic fault injection for the PTE lease design"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Injects scripted packet faults (drop / corrupt / delay / \
              duplicate, selected by link, event root, occurrence and time \
              window) and node faults (crash-and-reboot, clock drift) into \
              the laser-tracheotomy emulation. Plans are JSON and replay \
              byte-identically from (plan, seed).";
         ])
    [ inject_cmd; coverage_cmd; fuzz_cmd ]

let () =
  match Cmd.eval_value ~catch:false cmd with
  | exception Pte_campaign.Checkpoint.Mismatch msg ->
      Fmt.epr "pte-faults: %s@." msg;
      exit 3
  | Ok (`Ok ()) | Ok `Help | Ok `Version -> exit 0
  | Error `Parse -> exit Cmd.Exit.cli_error
  | Error (`Term | `Exn) -> exit Cmd.Exit.internal_error
