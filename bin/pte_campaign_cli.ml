(* `pte-campaign`: parallel, checkpointable Monte-Carlo trial campaigns.

     dune exec bin/pte_campaign_cli.exe -- table1 --reps 20 --workers 4
     dune exec bin/pte_campaign_cli.exe -- sweep --losses 0,0.2,0.4 --reps 10
     dune exec bin/pte_campaign_cli.exe -- table1 --out r.jsonl --resume

   Results are deterministic for a given --seed at any --workers count;
   --out appends each completed trial to a JSONL checkpoint, and --resume
   skips trials already recorded there. *)

open Cmdliner

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
    Logs.set_level (Some Logs.Info)
  end

let summary_line (campaign : _ Pte_campaign.Runner.result) =
  Fmt.pr "campaign: %d jobs — %d ok, %d failed, %d resumed@."
    (Array.length campaign.Pte_campaign.Runner.outcomes)
    campaign.Pte_campaign.Runner.ok campaign.Pte_campaign.Runner.failed
    campaign.Pte_campaign.Runner.resumed

let fmt_summary (s : Pte_campaign.Aggregate.summary) =
  if s.Pte_campaign.Aggregate.n < 2 then
    Fmt.str "%.1f" s.Pte_campaign.Aggregate.mean
  else
    Fmt.str "%.1f ±%.1f" s.Pte_campaign.Aggregate.mean
      s.Pte_campaign.Aggregate.ci95

(* Failing-reps column with the Wilson 95% interval on the violation
   rate: "0/20 [0,16%]" says what 0-out-of-20 actually certifies, where
   the normal-approximation half-width would degenerate to +-0. *)
let fmt_failing_reps (a : Pte_tracheotomy.Trial.aggregate) =
  let base =
    Fmt.str "%d/%d" a.Pte_tracheotomy.Trial.failure_reps
      a.Pte_tracheotomy.Trial.reps
  in
  match a.Pte_tracheotomy.Trial.failure_rate.Pte_campaign.Aggregate.wilson with
  | Some (lo, hi) when a.Pte_tracheotomy.Trial.reps >= 2 ->
      Fmt.str "%s [%.0f,%.0f%%]" base (100.0 *. lo) (100.0 *. hi)
  | _ -> base

let aggregate_columns (a : Pte_tracheotomy.Trial.aggregate) =
  [
    Pte_util.Table.fmt_int a.Pte_tracheotomy.Trial.reps;
    fmt_summary a.Pte_tracheotomy.Trial.emissions;
    fmt_summary a.Pte_tracheotomy.Trial.failures;
    fmt_failing_reps a;
    fmt_summary a.Pte_tracheotomy.Trial.evt_to_stop;
    fmt_summary a.Pte_tracheotomy.Trial.longest_pause;
  ]

let aggregate_header = [ "reps"; "emissions"; "failures"; "failing reps"; "evtToStop"; "longest pause s" ]

let aggregate_aligns =
  Pte_util.Table.[ Right; Right; Right; Right; Right; Right ]

let exit_of_campaign (campaign : _ Pte_campaign.Runner.result) =
  if campaign.Pte_campaign.Runner.failed > 0 then begin
    Fmt.epr
      "pte-campaign: %d job(s) failed after retries — the aggregates \
       above rest on dropped trials@."
      campaign.Pte_campaign.Runner.failed;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* table1 subcommand                                                  *)
(* ------------------------------------------------------------------ *)

let run_table1 reps seed workers minutes out resume verbose =
  setup_logs verbose;
  let cells = Pte_tracheotomy.Trial.table1_cells ~seed in
  let configs =
    Array.map
      (fun (_, _, c) ->
        { c with Pte_tracheotomy.Emulation.horizon = minutes *. 60.0 })
      cells
  in
  let campaign, _ =
    Pte_tracheotomy.Trial.run_cells ?workers ?checkpoint:out ~resume ~reps
      ~seed configs
  in
  summary_line campaign;
  let table =
    Pte_util.Table.create
      ~title:
        (Fmt.str "Table I campaign: %g-minute trials, seed %d, %d replicates"
           minutes seed reps)
      ~header:([ "Trial Mode"; "E(Toff) s" ] @ aggregate_header)
      ~aligns:(Pte_util.Table.[ Left; Right ] @ aggregate_aligns)
      ()
  in
  Array.iteri
    (fun i (mode, e_toff, _) ->
      let agg =
        Pte_tracheotomy.Trial.aggregate_of_cell
          campaign.Pte_campaign.Runner.cells.(i)
      in
      Pte_util.Table.add_row table
        ([ mode; Pte_util.Table.fmt_float ~decimals:0 e_toff ]
        @ aggregate_columns agg))
    cells;
  Pte_util.Table.print table;
  exit_of_campaign campaign

(* ------------------------------------------------------------------ *)
(* sweep subcommand                                                   *)
(* ------------------------------------------------------------------ *)

let run_sweep losses reps seed workers minutes out resume verbose =
  setup_logs verbose;
  let horizon = minutes *. 60.0 in
  let cell ~lease i loss =
    {
      Pte_tracheotomy.Emulation.default with
      lease;
      horizon;
      seed = seed + i;
      loss =
        (if loss = 0.0 then Pte_net.Loss.Perfect
         else Pte_net.Loss.wifi_interference ~average_loss:loss);
    }
  in
  let configs =
    Array.of_list
      (List.concat
         (List.mapi
            (fun i loss -> [ cell ~lease:true i loss; cell ~lease:false i loss ])
            losses))
  in
  let campaign, _ =
    Pte_tracheotomy.Trial.run_cells ?workers ?checkpoint:out ~resume ~reps
      ~seed configs
  in
  summary_line campaign;
  let table =
    Pte_util.Table.create
      ~title:
        (Fmt.str
           "Loss sweep campaign: %g-minute trials, seed %d, %d replicates"
           minutes seed reps)
      ~header:
        [ "avg loss"; "failures (lease)"; "failing reps (lease)";
          "failures (none)"; "failing reps (none)"; "longest pause none s" ]
      ~aligns:
        Pte_util.Table.[ Right; Right; Right; Right; Right; Right ]
      ()
  in
  List.iteri
    (fun i loss ->
      let agg j =
        Pte_tracheotomy.Trial.aggregate_of_cell
          campaign.Pte_campaign.Runner.cells.(j)
      in
      let w = agg (2 * i) and n = agg ((2 * i) + 1) in
      Pte_util.Table.add_row table
        [ Fmt.str "%.0f%%" (100.0 *. loss);
          fmt_summary w.Pte_tracheotomy.Trial.failures;
          fmt_failing_reps w;
          fmt_summary n.Pte_tracheotomy.Trial.failures;
          fmt_failing_reps n;
          fmt_summary n.Pte_tracheotomy.Trial.longest_pause ])
    losses;
  Pte_util.Table.print table;
  exit_of_campaign campaign

(* ------------------------------------------------------------------ *)
(* certify subcommand                                                 *)
(* ------------------------------------------------------------------ *)

let run_certify smoke target confidence particles stages min_effective
    no_screen cseed workers cminutes json verbose =
  setup_logs verbose;
  let module C = Pte_tracheotomy.Certify in
  let base = if smoke then C.smoke else C.default in
  let value v default = Option.value v ~default in
  let config =
    {
      base with
      C.target = value target base.C.target;
      confidence = value confidence base.C.confidence;
      min_effective = value min_effective base.C.min_effective;
      horizon =
        (match cminutes with
        | Some m -> m *. 60.0
        | None -> base.C.horizon);
      screen = (if no_screen then None else base.C.screen);
      split =
        {
          base.C.split with
          Pte_rare.Split.particles =
            value particles base.C.split.Pte_rare.Split.particles;
          max_stages = value stages base.C.split.Pte_rare.Split.max_stages;
        };
      seed = value cseed base.C.seed;
      workers;
    }
  in
  (match C.validate config with
  | Ok () -> ()
  | Error e ->
      Fmt.epr "pte-campaign: %s@." e;
      exit Cmd.Exit.cli_error);
  let report = C.run ~config () in
  Fmt.pr "%a@." C.pp_report report;
  Option.iter
    (fun path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc
            (Pte_util.Json.to_string (C.report_to_json report) ^ "\n")))
    json;
  exit (C.exit_code report)

(* ------------------------------------------------------------------ *)
(* terms                                                              *)
(* ------------------------------------------------------------------ *)

let pos_int =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= 1 -> Ok n
    | Ok n -> Error (`Msg (Fmt.str "expected a positive number, got %d" n))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let reps =
  Arg.(
    value & opt pos_int 5
    & info [ "reps" ] ~docv:"N" ~doc:"Independently-seeded replicates per cell.")

let seed =
  Arg.(value & opt int 2013 & info [ "seed" ] ~docv:"N" ~doc:"Campaign master seed.")

let workers =
  Arg.(
    value & opt (some pos_int) None
    & info [ "workers" ] ~docv:"N"
        ~doc:"Worker domains (default: all available cores).")

let minutes =
  Arg.(
    value & opt float 30.0
    & info [ "minutes" ] ~docv:"MIN" ~doc:"Simulated length of each trial.")

let out =
  Arg.(
    value & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Append each completed trial to this JSONL checkpoint file.")

let resume =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:"Skip jobs already recorded in the $(b,--out) file.")

let verbose =
  Arg.(
    value & flag
    & info [ "verbose"; "v" ] ~doc:"Report progress (trials/s, ETA) on stderr.")

let table1_cmd =
  Cmd.v
    (Cmd.info "table1" ~doc:"Run the four Table I cells as a campaign.")
    Term.(
      const run_table1 $ reps $ seed $ workers $ minutes $ out $ resume
      $ verbose)

let losses =
  Arg.(
    value
    & opt (list float) [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7 ]
    & info [ "losses" ] ~docv:"P,P,..."
        ~doc:"Average loss rates to sweep (with and without lease each).")

let sweep_cmd =
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Sweep average loss rates, with vs without lease (X1-style).")
    Term.(
      const run_sweep $ losses $ reps $ seed $ workers $ minutes $ out $ resume
      $ verbose)

let certify_cmd =
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Seconds-scale CI preset: 5-minute trials, 16 particles x 10 \
             stages, target 1e-3.")
  in
  let target =
    Arg.(
      value & opt (some float) None
      & info [ "target" ] ~docv:"P" ~doc:"Violation-rate bound to certify.")
  in
  let confidence =
    Arg.(
      value & opt (some float) None
      & info [ "confidence" ] ~docv:"C"
          ~doc:"Joint confidence of the certificate.")
  in
  let particles =
    Arg.(
      value & opt (some pos_int) None
      & info [ "particles" ] ~docv:"N"
          ~doc:"Splitting population per stage.")
  in
  let stages =
    Arg.(
      value & opt (some pos_int) None
      & info [ "stages" ] ~docv:"N" ~doc:"Splitting stage budget.")
  in
  let min_effective =
    Arg.(
      value & opt (some float) None
      & info [ "min-effective" ] ~docv:"N"
          ~doc:
            "Effective-trial floor below which a reached bound is reported \
             but not certified.")
  in
  let no_screen =
    Arg.(
      value & flag
      & info [ "no-screen" ]
          ~doc:"Skip the SPRT screen and go straight to splitting.")
  in
  let cseed =
    Arg.(
      value & opt (some int) None
      & info [ "seed" ] ~docv:"N" ~doc:"Certification master seed.")
  in
  let cminutes =
    Arg.(
      value & opt (some float) None
      & info [ "minutes" ] ~docv:"MIN" ~doc:"Simulated length of each trial.")
  in
  let json =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the full report (stages, bounds, verdicts) as JSON.")
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Certify a rare-event violation bound: SPRT screen, then importance \
          splitting over fault-plan severity. Exit 0 only when with-lease \
          certifies and without-lease fails to.")
    Term.(
      const run_certify $ smoke $ target $ confidence $ particles $ stages
      $ min_effective $ no_screen $ cseed $ workers $ cminutes $ json
      $ verbose)

let cmd =
  Cmd.group
    (Cmd.info "pte-campaign"
       ~doc:"parallel, checkpointable Monte-Carlo emulation campaigns"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs grids of laser-tracheotomy emulation trials on a pool of \
              worker domains. Per-trial PRNG streams are split off the master \
              seed by job index, so results are identical at any worker count \
              and across checkpoint/resume cycles.";
         ])
    [ table1_cmd; sweep_cmd; certify_cmd ]

let () =
  match Cmd.eval_value ~catch:false cmd with
  | exception Pte_campaign.Checkpoint.Mismatch msg ->
      Fmt.epr "pte-campaign: %s@." msg;
      exit 3
  | Ok (`Ok ()) | Ok `Help | Ok `Version -> exit 0
  | Error `Parse -> exit Cmd.Exit.cli_error
  | Error (`Term | `Exn) -> exit Cmd.Exit.internal_error
