(* `pte-sim`: run laser-tracheotomy emulation trials from the command
   line.

     dune exec bin/pte_sim_cli.exe -- --minutes 30 --e-toff 18 --lease false
     dune exec bin/pte_sim_cli.exe -- --table1
     dune exec bin/pte_sim_cli.exe -- --loss 0.4 --seed 7 --verbose *)

open Cmdliner

let run table1 lease minutes e_ton e_toff loss loss_model seed reps workers
    transport verbose =
  let transport_mode : Pte_net.Transport.mode = transport in
  if table1 then begin
    if reps > 1 then
      Fmt.pr "Table I reproduction (seed %d, %d replicates):@." seed reps
    else Fmt.pr "Table I reproduction (seed %d):@." seed;
    List.iter
      (fun (mode, e_toff, (row : Pte_tracheotomy.Trial.replicated)) ->
        Fmt.pr "  %-14s E(Toff)=%4.1fs : %a@." mode e_toff
          Pte_tracheotomy.Trial.pp_result row.Pte_tracheotomy.Trial.rep0;
        if reps > 1 then
          Fmt.pr "  %-14s %12s : %a@." "" "aggregate"
            Pte_tracheotomy.Trial.pp_aggregate row.Pte_tracheotomy.Trial.agg)
      (Pte_tracheotomy.Trial.table1 ~seed ~reps ?workers ())
  end
  else begin
    let config =
      {
        Pte_tracheotomy.Emulation.default with
        lease;
        horizon = minutes *. 60.0;
        e_ton;
        e_toff;
        seed;
        transport = transport_mode;
        loss =
          (match loss_model with
          | Some kind -> kind
          | None ->
              if loss <= 0.0 then Pte_net.Loss.Perfect
              else Pte_net.Loss.wifi_interference ~average_loss:loss);
      }
    in
    (* an admissible-looking spec can still fail the Theorem-1 recheck
       at build time (retry budget or synthesized schedule past the
       delay slack): surface the reason, not a backtrace *)
    let r =
      try Pte_tracheotomy.Trial.run config
      with Invalid_argument msg ->
        Fmt.epr "pte-sim: %s@." msg;
        exit 2
    in
    let channel =
      match loss_model with
      | Some kind -> Fmt.str "%a" Pte_net.Loss.pp_kind kind
      | None -> Fmt.str "%g" loss
    in
    Fmt.pr "%.0f-minute trial (%s, E(Ton)=%gs, E(Toff)=%gs, loss %s, seed %d)@."
      minutes
      (if lease then "with lease" else "WITHOUT lease")
      e_ton e_toff channel seed;
    Fmt.pr "  %a@." Pte_tracheotomy.Trial.pp_result r;
    (match transport_mode with
    | `Bare -> ()
    | `Reliable cfg ->
        Fmt.pr "  transport: reliable (%a) retx:%d gave-up:%d dups:%d@."
          Pte_net.Transport.pp_config cfg r.Pte_tracheotomy.Trial.retransmissions
          r.Pte_tracheotomy.Trial.gave_up
          r.Pte_tracheotomy.Trial.dups_suppressed
    | `Scheduled _ ->
        let sched =
          match r.Pte_tracheotomy.Trial.schedule with
          | Some sched -> sched
          | None -> assert false (* scheduled trials always synthesize *)
        in
        Fmt.pr
          "  transport: scheduled (slots:%d period:%gs retries:%d depth:%d) \
           wcl-bound:%.2fs worst-seen:%.2fs gave-up:%d@."
          sched.Pte_sched.Schedule.slots_per_round
          (Pte_sched.Schedule.period sched)
          (match sched.Pte_sched.Schedule.entries with
          | e :: _ -> e.Pte_sched.Schedule.retries
          | [] -> 0)
          sched.Pte_sched.Schedule.depth
          (Pte_sched.Schedule.worst_case_latency sched)
          r.Pte_tracheotomy.Trial.worst_latency
          r.Pte_tracheotomy.Trial.gave_up
    | `Adaptive _ ->
        Fmt.pr
          "  transport: adaptive switches-up:%d switches-down:%d \
           switch-refusals:%d gave-up:%d worst-seen:%.2fs%s@."
          r.Pte_tracheotomy.Trial.mode_switches_up
          r.Pte_tracheotomy.Trial.mode_switches_down
          r.Pte_tracheotomy.Trial.switch_refusals
          r.Pte_tracheotomy.Trial.gave_up
          r.Pte_tracheotomy.Trial.worst_latency
          (match r.Pte_tracheotomy.Trial.schedule with
          | Some _ -> " (ended degraded)"
          | None -> ""));
    if verbose || r.Pte_tracheotomy.Trial.failures > 0 then
      List.iter
        (fun v -> Fmt.pr "  %a@." Pte_core.Monitor.pp_violation v)
        r.Pte_tracheotomy.Trial.violations;
    exit (if r.Pte_tracheotomy.Trial.failures > 0 then 1 else 0)
  end

let cmd =
  let table1 =
    Arg.(value & flag & info [ "table1" ] ~doc:"Run the four Table I trials.")
  in
  let lease =
    Arg.(
      value & opt bool true
      & info [ "lease" ] ~docv:"BOOL"
          ~doc:"Enable the lease mechanism (use $(b,--lease false) for the baseline).")
  in
  let minutes =
    Arg.(value & opt float 30.0 & info [ "minutes" ] ~docv:"MIN" ~doc:"Trial length.")
  in
  let e_ton =
    Arg.(value & opt float 30.0 & info [ "e-ton" ] ~docv:"S" ~doc:"Mean of the surgeon's request timer Ton.")
  in
  let e_toff =
    Arg.(value & opt float 18.0 & info [ "e-toff" ] ~docv:"S" ~doc:"Mean of the surgeon's cancel timer Toff.")
  in
  let loss =
    Arg.(value & opt float 0.25 & info [ "loss" ] ~docv:"P" ~doc:"Average channel loss rate (0 = perfect channel).")
  in
  let loss_model =
    Arg.(
      value
      & opt (some Pte_net.Loss.conv) None
      & info [ "loss-model" ] ~docv:"MODEL"
          ~doc:
            "Channel loss model, overriding $(b,--loss): $(b,perfect), \
             $(b,wifi:)$(i,avg) (the Table-I Gilbert-Elliott channel at \
             that average loss), $(b,bernoulli:)$(i,p), \
             $(b,ge:)$(i,to_bad,to_good,loss_good,loss_bad) (a raw \
             Gilbert-Elliott channel) or \
             $(b,interferer:)$(i,period,burst,loss_during,loss_idle) \
             (periodic WiFi bursts).")
  in
  let seed = Arg.(value & opt int 2013 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.") in
  let reps =
    Arg.(
      value & opt int 1
      & info [ "reps" ] ~docv:"N"
          ~doc:"Independently-seeded replicates per Table I row (campaign-backed).")
  in
  let workers =
    Arg.(
      value & opt (some int) None
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains for replicated runs (default: all cores).")
  in
  let transport =
    Arg.(
      value
      & opt Pte_net.Transport.conv `Bare
      & info [ "transport" ] ~docv:"MODE"
          ~doc:
            "Radio transport: $(b,bare) (single-shot sends, the paper's \
             model), $(b,reliable)[:$(i,k=v),...] (event-driven \
             ACK/retransmission; keys $(b,retries), $(b,rto), \
             $(b,multiplier), $(b,cap), $(b,jitter); the config is \
             validated and Theorem 1 is rechecked with the retry budget) or \
             $(b,scheduled)[:$(i,k=v),...] (time-triggered TDMA rounds with \
             blind retransmissions; keys $(b,slot), $(b,retries), \
             $(b,loss), $(b,confidence), $(b,depth), $(b,budget); the \
             schedule is synthesized against the star and Theorem 1 is \
             rechecked with its worst-case latency) or \
             $(b,adaptive)[:$(i,k=v),...] (online channel-health \
             estimation with safe runtime mode-switching; keys \
             $(b,healthy), $(b,degrade), $(b,recover), $(b,dwell), \
             $(b,samples), $(b,window), $(b,burst), $(b,budget); every \
             switch candidate is rechecked against Theorem 1 before \
             committing).")
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print all violations.") in
  let doc = "run laser-tracheotomy wireless-CPS emulation trials" in
  Cmd.v
    (Cmd.info "pte-sim" ~doc)
    Term.(
      const run $ table1 $ lease $ minutes $ e_ton $ e_toff $ loss $ loss_model
      $ seed $ reps $ workers $ transport $ verbose)

let () = exit (Cmd.eval cmd)
