(* Campaign engine: JSON round-trips, job planning, pool scheduling,
   worker-count determinism, retry/degradation, checkpoint/resume. *)

open Pte_campaign
module Json = Pte_util.Json

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("job", Json.Num 7.0);
        ("status", Json.Str "ok");
        ("weird", Json.Str "a\"b\\c\nd\te");
        ("metrics", Json.Obj [ ("x", Json.Num 1.25); ("y", Json.Num (-3e-7)) ]);
        ("tags", Json.Arr [ Json.Bool true; Json.Null; Json.Num 0.0 ]);
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round-trip" true (v = v')
  | Error e -> Alcotest.failf "re-parse failed: %s" e

let test_json_integers_stay_textual () =
  (* job ids must survive a textual grep of the checkpoint file *)
  Alcotest.(check string) "int form" "{\"job\":42}"
    (Json.to_string (Json.Obj [ ("job", Json.Num 42.0) ]))

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "{\"a\":}"; "[1,]"; "{\"a\":1} trailing"; "nul" ]

let test_outcome_roundtrip () =
  let outcomes =
    [
      {
        Job.id = 3; cell = 1; rep = 1; attempts = 2; status = Job.Done;
        metrics = [ ("failures", 0.0); ("longest_pause", 41.00000001) ];
      };
      {
        Job.id = 9; cell = 4; rep = 0; attempts = 3;
        status = Job.Failed "Failure(\"boom\")"; metrics = [];
      };
    ]
  in
  List.iter
    (fun o ->
      match Job.outcome_of_json (Job.outcome_to_json o) with
      | Ok o' -> Alcotest.(check bool) "outcome round-trip" true (o = o')
      | Error e -> Alcotest.failf "outcome re-parse failed: %s" e)
    outcomes

(* ------------------------------------------------------------------ *)
(* planning                                                            *)
(* ------------------------------------------------------------------ *)

let test_plan_shape () =
  let jobs = Job.plan ~cells:[| "a"; "b"; "c" |] ~reps:4 ~seed:1 in
  Alcotest.(check int) "12 jobs" 12 (Array.length jobs);
  Array.iteri
    (fun i (j : string Job.t) ->
      Alcotest.(check int) "id" i j.Job.id;
      Alcotest.(check int) "cell" (i / 4) j.Job.cell;
      Alcotest.(check int) "rep" (i mod 4) j.Job.rep;
      Alcotest.(check string) "payload" [| "a"; "b"; "c" |].(i / 4) j.Job.payload)
    jobs

let test_plan_deterministic () =
  let seeds jobs = Array.map (fun (j : _ Job.t) -> j.Job.seed) jobs in
  let a = Job.plan ~cells:[| (); () |] ~reps:5 ~seed:99 in
  let b = Job.plan ~cells:[| (); () |] ~reps:5 ~seed:99 in
  let c = Job.plan ~cells:[| (); () |] ~reps:5 ~seed:100 in
  Alcotest.(check bool) "same master seed, same plan" true (seeds a = seeds b);
  Alcotest.(check bool) "different master seed differs" false (seeds a = seeds c)

(* the ISSUE's qcheck property: split-derived job streams are pairwise
   distinct for any master seed and non-trivial grid *)
let prop_job_streams_pairwise_distinct =
  QCheck.Test.make ~name:"split-derived job streams pairwise distinct"
    ~count:100
    QCheck.(
      triple (make QCheck.Gen.int) (int_range 1 6) (int_range 1 6))
    (fun (seed, cells, reps) ->
      let jobs = Job.plan ~cells:(Array.make cells ()) ~reps ~seed in
      let streams =
        Array.map
          (fun job ->
            let rng = Job.rng job in
            List.init 8 (fun _ -> Pte_util.Rng.next_int64 rng))
          jobs
      in
      let distinct = ref true in
      Array.iteri
        (fun i a ->
          Array.iteri (fun k b -> if i < k && a = b then distinct := false) streams)
        streams;
      !distinct)

let test_job_rng_replayable () =
  let jobs = Job.plan ~cells:[| () |] ~reps:3 ~seed:7 in
  Array.iter
    (fun job ->
      let a = Job.rng job and b = Job.rng job in
      List.iter
        (fun _ ->
          Alcotest.(check (float 0.0)) "replay" (Pte_util.Rng.float a)
            (Pte_util.Rng.float b))
        (List.init 16 Fun.id))
    jobs

(* ------------------------------------------------------------------ *)
(* pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_matches_sequential () =
  let xs = Array.init 37 (fun i -> i) in
  let f x = (x * x) + 1 in
  let expected = Array.map f xs in
  List.iter
    (fun workers ->
      Alcotest.(check (array int))
        (Fmt.str "workers=%d" workers)
        expected
        (Pool.map ~workers f xs))
    [ 1; 2; 4; 64 ]

let test_pool_empty_and_tiny () =
  Alcotest.(check (array int)) "empty" [||] (Pool.map ~workers:4 (fun x -> x) [||]);
  Alcotest.(check (array int)) "singleton" [| 9 |]
    (Pool.map ~workers:4 (fun x -> x + 2) [| 7 |])

(* ------------------------------------------------------------------ *)
(* campaign determinism                                                *)
(* ------------------------------------------------------------------ *)

(* a cheap synthetic trial: statistics over the job's private stream *)
let synthetic (job : int Job.t) rng =
  let draws = List.init 32 (fun _ -> Pte_util.Rng.float rng) in
  [
    ("mean", Pte_util.Stats.mean draws);
    ("max", Pte_util.Stats.maximum draws);
    ("payload", Float.of_int job.Job.payload);
  ]

let run_synthetic ?config ~workers () =
  let config =
    match config with
    | Some c -> { c with Runner.workers = Some workers }
    | None -> { Runner.default with workers = Some workers }
  in
  Runner.run ~config ~cells:[| 10; 20; 30 |] ~reps:4 ~seed:2013 synthetic

let check_same_aggregates label (a : _ Runner.result) (b : _ Runner.result) =
  Alcotest.(check bool) (label ^ ": identical aggregates") true
    (a.Runner.cells = b.Runner.cells);
  Alcotest.(check bool) (label ^ ": identical outcomes") true
    (a.Runner.outcomes = b.Runner.outcomes)

let test_determinism_across_workers () =
  let reference = run_synthetic ~workers:1 () in
  Alcotest.(check int) "all ok" 12 reference.Runner.ok;
  List.iter
    (fun workers ->
      check_same_aggregates
        (Fmt.str "workers=%d" workers)
        reference
        (run_synthetic ~workers ()))
    [ 2; 4 ]

let test_trial_campaign_determinism_across_workers () =
  (* the real consumer: short laser-tracheotomy trials through
     Trial.run_cells at several worker counts *)
  let cells =
    [|
      { Pte_tracheotomy.Emulation.default with horizon = 30.0; seed = 41 };
      {
        Pte_tracheotomy.Emulation.default with
        horizon = 30.0; seed = 42; lease = false;
      };
      (* the event-driven reliable transport keys its jitter streams per
         exchange, so it too must be deterministic at any worker count *)
      {
        Pte_tracheotomy.Emulation.default with
        horizon = 30.0;
        seed = 43;
        transport = `Reliable Pte_net.Transport.default_config;
        loss = Pte_net.Loss.wifi_interference ~average_loss:0.35;
      };
      (* the time-triggered mode's blind copies ride the executor's
         timer queue off a split RNG stream of their own: the full
         three-mode matrix must stay worker-count independent *)
      {
        Pte_tracheotomy.Emulation.default with
        horizon = 30.0;
        seed = 44;
        transport = `Scheduled Pte_sched.Synth.default_policy;
        loss = Pte_net.Loss.wifi_interference ~average_loss:0.35;
      };
      (* adaptive mode adds the estimator, the escalation policy and
         the safe-switch protocol on top; a lossy channel keeps the
         estimator fed so tier decisions are part of what must replay
         identically at any worker count *)
      {
        Pte_tracheotomy.Emulation.default with
        horizon = 30.0;
        seed = 45;
        transport = `Adaptive Pte_net.Transport.default_adaptive;
        loss = Pte_net.Loss.wifi_interference ~average_loss:0.5;
      };
    |]
  in
  let agg workers =
    let campaign, _ =
      Pte_tracheotomy.Trial.run_cells ~workers ~reps:2 ~seed:7 cells
    in
    campaign.Runner.cells
  in
  let reference = agg 1 in
  List.iter
    (fun workers ->
      Alcotest.(check bool)
        (Fmt.str "workers=%d equals workers=1" workers)
        true
        (agg workers = reference))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* degradation: retries and crash capture                              *)
(* ------------------------------------------------------------------ *)

let test_retry_recovers_flaky_job () =
  let attempts_seen = Array.init 12 (fun _ -> Atomic.make 0) in
  let flaky job rng =
    if Atomic.fetch_and_add attempts_seen.((job : int Job.t).Job.id) 1 = 0 then
      failwith "transient";
    synthetic job rng
  in
  let config = { Runner.default with workers = Some 2; retries = 1 } in
  let result = Runner.run ~config ~cells:[| 10; 20; 30 |] ~reps:4 ~seed:2013 flaky in
  Alcotest.(check int) "all jobs recovered" 12 result.Runner.ok;
  Array.iter
    (fun (o : Job.outcome) ->
      Alcotest.(check int) "two attempts" 2 o.Job.attempts)
    result.Runner.outcomes;
  (* the retry replays the identical stream: aggregates match a clean run *)
  let clean = run_synthetic ~config ~workers:2 () in
  Alcotest.(check bool) "same aggregates as clean run" true
    (result.Runner.cells = clean.Runner.cells)

let test_crashing_job_degrades_campaign () =
  let crash job rng =
    if (job : int Job.t).Job.id = 5 then failwith "broken trial";
    synthetic job rng
  in
  let config = { Runner.default with workers = Some 2; retries = 1 } in
  let result = Runner.run ~config ~cells:[| 10; 20; 30 |] ~reps:4 ~seed:2013 crash in
  Alcotest.(check int) "one failure" 1 result.Runner.failed;
  Alcotest.(check int) "rest completed" 11 result.Runner.ok;
  (match result.Runner.outcomes.(5).Job.status with
  | Job.Failed reason ->
      Alcotest.(check bool) "reason recorded" true
        (String.length reason > 0)
  | Job.Done -> Alcotest.fail "job 5 should have failed");
  (* cell 1 lost one replicate; the others are whole *)
  Alcotest.(check int) "cell 1 ok count" 3 result.Runner.cells.(1).Aggregate.ok;
  Alcotest.(check int) "cell 1 failed count" 1
    result.Runner.cells.(1).Aggregate.failed;
  Alcotest.(check int) "cell 0 intact" 4 result.Runner.cells.(0).Aggregate.ok

(* ------------------------------------------------------------------ *)
(* checkpoint / resume                                                 *)
(* ------------------------------------------------------------------ *)

let with_temp_file f =
  let path = Filename.temp_file "pte_campaign" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_checkpoint_records_all_jobs () =
  with_temp_file (fun path ->
      let config =
        { Runner.default with workers = Some 2; checkpoint = Some path }
      in
      let result = run_synthetic ~config ~workers:2 () in
      let loaded = Checkpoint.load path in
      Alcotest.(check int) "12 lines" 12 (List.length loaded);
      let by_id =
        List.sort (fun (a : Job.outcome) b -> compare a.Job.id b.Job.id) loaded
      in
      Alcotest.(check bool) "checkpoint = outcomes" true
        (Array.of_list by_id = result.Runner.outcomes))

let truncate_checkpoint path ~keep_lines =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let lines = List.rev !lines in
  let kept = List.filteri (fun i _ -> i < keep_lines) lines in
  let torn =
    (* half of the next line: the signature of a kill mid-write *)
    match List.nth_opt lines keep_lines with
    | Some line -> [ String.sub line 0 (String.length line / 2) ]
    | None -> []
  in
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) kept;
  List.iter (fun l -> output_string oc l) torn;
  close_out oc

let test_resume_after_kill_matches_uninterrupted () =
  let uninterrupted = run_synthetic ~workers:2 () in
  with_temp_file (fun path ->
      let config =
        { Runner.default with workers = Some 2; checkpoint = Some path }
      in
      let _first = run_synthetic ~config ~workers:2 () in
      (* simulate a kill after 5 of 12 jobs, mid-write of the 6th
         (line 1 is the campaign header) *)
      truncate_checkpoint path ~keep_lines:6;
      let resumed_config = { config with resume = true } in
      let resumed = run_synthetic ~config:resumed_config ~workers:2 () in
      Alcotest.(check int) "5 jobs resumed" 5 resumed.Runner.resumed;
      check_same_aggregates "resumed vs uninterrupted" uninterrupted resumed;
      (* the repaired checkpoint now has all 12 outcomes again *)
      Alcotest.(check int) "repaired file complete" 12
        (List.length (Checkpoint.load path)))

let test_resume_noop_on_complete_file () =
  with_temp_file (fun path ->
      let config =
        { Runner.default with workers = Some 2; checkpoint = Some path }
      in
      let first = run_synthetic ~config ~workers:2 () in
      let resumed =
        run_synthetic ~config:{ config with resume = true } ~workers:2 ()
      in
      Alcotest.(check int) "everything resumed" 12 resumed.Runner.resumed;
      check_same_aggregates "no-op resume" first resumed)

let test_resume_ignores_foreign_checkpoint () =
  with_temp_file (fun path ->
      (* a checkpoint recorded for a *different* grid shape must not be
         trusted for this campaign *)
      let writer = Checkpoint.open_writer path in
      Checkpoint.record writer
        {
          Job.id = 0; cell = 3; rep = 9; attempts = 1; status = Job.Done;
          metrics = [ ("mean", 0.0) ];
        };
      Checkpoint.close writer;
      let config =
        {
          Runner.default with
          workers = Some 1;
          checkpoint = Some path;
          resume = true;
        }
      in
      let result = run_synthetic ~config ~workers:1 () in
      Alcotest.(check int) "nothing resumed" 0 result.Runner.resumed;
      check_same_aggregates "foreign line ignored" (run_synthetic ~workers:1 ())
        result)

let test_checkpoint_header_names_campaign () =
  with_temp_file (fun path ->
      let config =
        { Runner.default with workers = Some 1; checkpoint = Some path }
      in
      let _ = run_synthetic ~config ~workers:1 () in
      match Checkpoint.read_header path with
      | None -> Alcotest.fail "checkpoint has no header line"
      | Some h ->
          Alcotest.(check int) "seed" 2013 h.Checkpoint.seed;
          Alcotest.(check int) "cells" 3 h.Checkpoint.cells;
          Alcotest.(check int) "reps" 4 h.Checkpoint.reps;
          let jobs = Job.plan ~cells:[| 10; 20; 30 |] ~reps:4 ~seed:2013 in
          Alcotest.(check string) "digest" (Job.digest jobs) h.Checkpoint.digest)

let test_resume_refuses_mismatched_header () =
  with_temp_file (fun path ->
      let config =
        { Runner.default with workers = Some 1; checkpoint = Some path }
      in
      let _ = run_synthetic ~config ~workers:1 () in
      let resume = { config with Runner.resume = true } in
      (* a different master seed means a different per-job seed table:
         those recorded metrics would be silently wrong to reuse *)
      match
        Runner.run ~config:resume ~cells:[| 10; 20; 30 |] ~reps:4 ~seed:999
          synthetic
      with
      | exception Checkpoint.Mismatch _ -> ()
      | _ -> Alcotest.fail "resume accepted a mismatched checkpoint")

(* ------------------------------------------------------------------ *)
(* aggregation                                                         *)
(* ------------------------------------------------------------------ *)

let test_aggregate_matches_batch_stats () =
  let result = run_synthetic ~workers:4 () in
  let cell = result.Runner.cells.(1) in
  let means =
    Array.to_list result.Runner.outcomes
    |> List.filter (fun (o : Job.outcome) -> o.Job.cell = 1)
    |> List.map (fun (o : Job.outcome) -> List.assoc "mean" o.Job.metrics)
  in
  let s = Aggregate.metric cell "mean" in
  Alcotest.(check int) "n" 4 s.Aggregate.n;
  Alcotest.(check (float 1e-12)) "mean" (Pte_util.Stats.mean means)
    s.Aggregate.mean;
  Alcotest.(check (float 1e-12)) "stddev" (Pte_util.Stats.stddev means)
    s.Aggregate.stddev;
  Alcotest.(check (float 1e-12)) "ci95"
    (1.96 *. Pte_util.Stats.stddev means /. sqrt 4.0)
    s.Aggregate.ci95;
  Alcotest.(check (float 0.0)) "min" (Pte_util.Stats.minimum means) s.Aggregate.lo;
  Alcotest.(check (float 0.0)) "max" (Pte_util.Stats.maximum means) s.Aggregate.hi

let suite =
  [
    ( "campaign.json",
      [
        Alcotest.test_case "value round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "integers stay textual" `Quick
          test_json_integers_stay_textual;
        Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
        Alcotest.test_case "outcome round-trip" `Quick test_outcome_roundtrip;
      ] );
    ( "campaign.plan",
      [
        Alcotest.test_case "grid shape" `Quick test_plan_shape;
        Alcotest.test_case "deterministic in master seed" `Quick
          test_plan_deterministic;
        Alcotest.test_case "job rng replayable" `Quick test_job_rng_replayable;
        QCheck_alcotest.to_alcotest prop_job_streams_pairwise_distinct;
      ] );
    ( "campaign.pool",
      [
        Alcotest.test_case "matches sequential map" `Quick
          test_pool_matches_sequential;
        Alcotest.test_case "empty and tiny inputs" `Quick
          test_pool_empty_and_tiny;
      ] );
    ( "campaign.runner",
      [
        Alcotest.test_case "deterministic at 1/2/4 workers" `Quick
          test_determinism_across_workers;
        Alcotest.test_case "trial campaign deterministic at 1/2/4 workers"
          `Slow test_trial_campaign_determinism_across_workers;
        Alcotest.test_case "retry recovers a flaky job" `Quick
          test_retry_recovers_flaky_job;
        Alcotest.test_case "crashing job degrades, not kills" `Quick
          test_crashing_job_degrades_campaign;
        Alcotest.test_case "aggregate = batch statistics" `Quick
          test_aggregate_matches_batch_stats;
      ] );
    ( "campaign.checkpoint",
      [
        Alcotest.test_case "records every job" `Quick
          test_checkpoint_records_all_jobs;
        Alcotest.test_case "resume after kill = uninterrupted" `Quick
          test_resume_after_kill_matches_uninterrupted;
        Alcotest.test_case "resume no-op on complete file" `Quick
          test_resume_noop_on_complete_file;
        Alcotest.test_case "resume ignores foreign checkpoint" `Quick
          test_resume_ignores_foreign_checkpoint;
        Alcotest.test_case "header names the campaign" `Quick
          test_checkpoint_header_names_campaign;
        Alcotest.test_case "resume refuses mismatched header" `Quick
          test_resume_refuses_mismatched_header;
      ] );
  ]
