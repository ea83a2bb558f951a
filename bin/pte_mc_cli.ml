(* `pte-mc`: zone-reachability model checking of the lease pattern.

     dune exec bin/pte_mc_cli.exe                                   # verify the case study
     dune exec bin/pte_mc_cli.exe -- --lease false --first --trace  # find + show a counterexample
     dune exec bin/pte_mc_cli.exe -- --t-enter-2 3                  # break c5 *)

open Cmdliner

(* Inputs that would make a verdict meaningless are refused before any
   search: a NaN constant reaches the zones, a NaN or infinite dwell
   bound silently disables Rule 1, and a non-positive time or a negative
   budget is no configuration at all. *)
let validate ~t_enter_2 ~dwell_bound ~max_states =
  let seconds flag = function
    | Some v when not (Float.is_finite v && v > 0.0) ->
        Error (Fmt.str "--%s must be a finite time > 0 s (got %g)" flag v)
    | _ -> Ok ()
  in
  Result.bind (seconds "t-enter-2" t_enter_2) (fun () ->
      Result.bind (seconds "dwell-bound" dwell_bound) (fun () ->
          if max_states < 0 then
            Error (Fmt.str "--max-states must be >= 0 (got %d)" max_states)
          else Ok ()))

let run lease t_enter_2 dwell_bound max_states first show_trace =
  (match validate ~t_enter_2 ~dwell_bound ~max_states with
  | Ok () -> ()
  | Error e ->
      Fmt.epr "pte-mc: %s@." e;
      exit Cmd.Exit.cli_error);
  let base = Pte_core.Params.case_study in
  let p =
    match t_enter_2 with
    | None -> base
    | Some v ->
        {
          base with
          Pte_core.Params.entities =
            [|
              base.Pte_core.Params.entities.(0);
              { (base.Pte_core.Params.entities.(1)) with
                Pte_core.Params.t_enter_max = v };
            |];
        }
  in
  Fmt.pr "checking %s pattern, configuration:@.%a@.@."
    (if lease then "with-lease" else "NO-LEASE")
    Pte_core.Params.pp p;
  let outcomes = Pte_core.Constraints.check p in
  Fmt.pr "%a@.@." Pte_core.Constraints.pp_report outcomes;
  let t0 = Unix.gettimeofday () in
  let r =
    Pte_mc.Reach.check_pattern ~lease
      ~config:{ Pte_mc.Reach.max_states; stop_at_first = first }
      ?dwell_bound p
  in
  Fmt.pr "explored %d states / %d transitions in %.1fs (%s)@."
    r.Pte_mc.Reach.states r.Pte_mc.Reach.transitions
    (Unix.gettimeofday () -. t0)
    (if r.Pte_mc.Reach.exhausted then "exhaustive" else "bounded");
  (match r.Pte_mc.Reach.violations with
  | [] ->
      if r.Pte_mc.Reach.exhausted then
        Fmt.pr "VERIFIED: no PTE safety-rule violation is reachable.@."
      else Fmt.pr "no violation found within the state budget.@."
  | violations ->
      let kinds =
        List.sort_uniq compare
          (List.map
             (fun (v : Pte_mc.Reach.violation) ->
               Fmt.str "%a" Pte_mc.Reach.pp_violation_kind v.Pte_mc.Reach.kind)
             violations)
      in
      List.iter (fun k -> Fmt.pr "VIOLATION: %s@." k) kinds;
      if show_trace then begin
        match violations with
        | [] -> ()
        | v :: _ ->
            Fmt.pr "@.counterexample trace:@.";
            List.iter (fun a -> Fmt.pr "  %s@." a)
              (r.Pte_mc.Reach.trace v.Pte_mc.Reach.state)
      end);
  exit (if r.Pte_mc.Reach.violations = [] then 0 else 1)

let cmd =
  let lease =
    Arg.(value & opt bool true & info [ "lease" ] ~docv:"BOOL" ~doc:"Lease mechanism on/off.")
  in
  let t_enter_2 =
    Arg.(value & opt (some float) None & info [ "t-enter-2" ] ~docv:"S" ~doc:"Override the Initializer's T_enter (e.g. 3 breaks c5).")
  in
  let dwell_bound =
    Arg.(value & opt (some float) None & info [ "dwell-bound" ] ~docv:"S" ~doc:"Rule 1 bound to check (default: the Theorem 1 guarantee).")
  in
  let max_states =
    Arg.(value & opt int 2_000_000 & info [ "max-states" ] ~docv:"N" ~doc:"State budget.")
  in
  let first =
    Arg.(value & flag & info [ "first" ] ~doc:"Stop at the first violation.")
  in
  let show_trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print a counterexample trace.")
  in
  let doc = "model-check PTE safety of the lease pattern under arbitrary loss" in
  Cmd.v
    (Cmd.info "pte-mc" ~doc)
    Term.(const run $ lease $ t_enter_2 $ dwell_bound $ max_states $ first $ show_trace)

let () = exit (Cmd.eval cmd)
