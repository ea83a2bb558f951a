(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (plus the extension experiments of DESIGN.md) and runs the
   Bechamel performance microbenches.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe T1 X1      # a subset, by experiment id

   Experiment ids: T1 F1 F2 F3 F6 SV1 SV2 SV3 V1 V2 X1 X2 X3 A1 A2 A3 R1 C1
   P1 P2 S1 (see DESIGN.md, "Per-experiment index"). Output is plain text
   tables so the run can be diffed against EXPERIMENTS.md. `--smoke` shrinks
   the workloads (fewer occurrences/trials, shorter horizons) for CI-sized
   runs. *)

open Pte_util

let params = Pte_core.Params.case_study
let smoke = ref false

(* Machine-readable companions to the bench tables: BENCH_<id>.json next
   to the text output, so the perf/robustness trajectory diffs across
   PRs. Schema: { bench, seed, params, metrics: [ {name, ..., mean,
   ci95, n} ] }. *)
let write_bench_json ~bench ~seed ~params ~metrics =
  let module J = Pte_util.Json in
  let path = Fmt.str "BENCH_%s.json" bench in
  let json =
    J.Obj
      [ ("bench", J.Str bench); ("seed", J.Num (Float.of_int seed));
        ("params", J.Obj params); ("metrics", J.Arr metrics) ]
  in
  let oc = open_out path in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "wrote %s@." path

let summary_fields (s : Pte_campaign.Aggregate.summary) =
  let module J = Pte_util.Json in
  [ ("mean", J.Num s.Pte_campaign.Aggregate.mean);
    ("ci95", J.Num s.Pte_campaign.Aggregate.ci95);
    ("n", J.Num (Float.of_int s.Pte_campaign.Aggregate.n)) ]
  @
  (* indicator metrics carry the boundary-honest Wilson interval too *)
  match s.Pte_campaign.Aggregate.wilson with
  | None -> []
  | Some (lo, hi) -> [ ("wilson_lo", J.Num lo); ("wilson_hi", J.Num hi) ]

(* ------------------------------------------------------------------ *)
(* T1: Table I — PTE safety rule violation statistics                  *)
(* ------------------------------------------------------------------ *)

let t1 () =
  let table =
    Table.create
      ~title:"T1 / Table I: PTE safety-rule violation statistics (30-min trials)"
      ~header:
        [ "Trial Mode"; "E(Toff) s"; "Emissions"; "(paper)"; "Failures";
          "(paper)"; "evtToStop"; "(paper)"; "longest pause s"; "loss %" ]
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
      ()
  in
  let paper = [ (19, 0, 5); (11, 4, 0); (19, 0, 3); (12, 3, 0) ] in
  let rows = Pte_tracheotomy.Trial.table1 ~seed:2013 () in
  List.iter2
    (fun (mode, e_toff, (row : Pte_tracheotomy.Trial.replicated)) (pe, pf, ps) ->
      let r = row.Pte_tracheotomy.Trial.rep0 in
      Table.add_row table
        [ mode; Table.fmt_float ~decimals:0 e_toff;
          Table.fmt_int r.Pte_tracheotomy.Trial.emissions; Table.fmt_int pe;
          Table.fmt_int r.Pte_tracheotomy.Trial.failures; Table.fmt_int pf;
          Table.fmt_int r.Pte_tracheotomy.Trial.evt_to_stop; Table.fmt_int ps;
          Table.fmt_float ~decimals:1 r.Pte_tracheotomy.Trial.longest_pause;
          Table.fmt_float ~decimals:0
            (100.0 *. r.Pte_tracheotomy.Trial.effective_loss_rate) ])
    rows paper;
  Table.add_note table
    "each trial: 1800 simulated s, E(Ton)=30 s, constant WiFi-style bursty interference";
  Table.add_note table
    "shape to match the paper: with-lease rows have 0 failures and >0 evtToStop rescues;";
  Table.add_note table
    "without-lease rows have several failures and 0 evtToStop (no lease to expire).";
  Table.print table;
  (* robustness of the shape across seeds *)
  let robust =
    Table.create ~title:"T1b: Table I shape across 5 independent seeds"
      ~header:
        [ "seed"; "failures (lease, 18s/6s)"; "failures (none, 18s/6s)";
          "evtToStop (lease, 18s/6s)" ]
      ~aligns:[ Table.Right; Table.Left; Table.Left; Table.Left ] ()
  in
  List.iter
    (fun seed ->
      let rows = Pte_tracheotomy.Trial.table1 ~seed () in
      let get i =
        let _, _, row = List.nth rows i in
        row.Pte_tracheotomy.Trial.rep0
      in
      Table.add_row robust
        [ Table.fmt_int seed;
          Fmt.str "%d / %d" (get 0).Pte_tracheotomy.Trial.failures
            (get 2).Pte_tracheotomy.Trial.failures;
          Fmt.str "%d / %d" (get 1).Pte_tracheotomy.Trial.failures
            (get 3).Pte_tracheotomy.Trial.failures;
          Fmt.str "%d / %d" (get 0).Pte_tracheotomy.Trial.evt_to_stop
            (get 2).Pte_tracheotomy.Trial.evt_to_stop ])
    [ 1; 101; 2013; 4096; 9999 ];
  Table.add_note robust
    "with-lease failures must be 0 for every seed; without-lease failures must be > 0 in at least one E(Toff) column per seed";
  Table.print robust;
  (* MAC-layer retransmission variant (the TMote-Sky radios retransmit;
     our default channel does not) *)
  let mac =
    Table.create
      ~title:"T1c: with 3 MAC retransmissions per frame (TMote-Sky-like)"
      ~header:
        [ "Trial Mode"; "E(Toff) s"; "Emissions"; "Failures"; "evtToStop";
          "frame loss %" ]
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right ]
      ()
  in
  List.iter
    (fun (lease, e_toff, seed) ->
      let r =
        Pte_tracheotomy.Trial.run
          { Pte_tracheotomy.Emulation.default with
            lease; e_toff; seed; mac_retries = 3 }
      in
      Table.add_row mac
        [ (if lease then "with Lease" else "without Lease");
          Table.fmt_float ~decimals:0 e_toff;
          Table.fmt_int r.Pte_tracheotomy.Trial.emissions;
          Table.fmt_int r.Pte_tracheotomy.Trial.failures;
          Table.fmt_int r.Pte_tracheotomy.Trial.evt_to_stop;
          Table.fmt_float ~decimals:0
            (100.0 *. r.Pte_tracheotomy.Trial.effective_loss_rate) ])
    [ (true, 18.0, 2013); (false, 18.0, 2014); (true, 6.0, 2015);
      (false, 6.0, 2016) ];
  Table.add_note mac
    "retries cut residual frame loss and lift session throughput toward the paper's counts; bursty interference still defeats retries often enough that the no-lease rows keep failing";
  Table.print mac

(* ------------------------------------------------------------------ *)
(* F1: the Fig. 1 timeline of one leased episode                       *)
(* ------------------------------------------------------------------ *)

let f1 () =
  let tl = Pte_tracheotomy.Scenarios.fig1_timeline ~cancel_at:10.0 () in
  let table =
    Table.create ~title:"F1 / Fig. 1: measured PTE timeline of one episode"
      ~header:[ "quantity"; "measured s"; "requirement" ]
      ~aligns:[ Table.Left; Table.Right; Table.Left ] ()
  in
  Table.add_row table
    [ "t1: pause -> emission spacing";
      Table.fmt_float tl.Pte_tracheotomy.Scenarios.t1;
      ">= T_risky:1->2 = 3.0 s" ];
  Table.add_row table
    [ "t2: laser-off -> resume spacing";
      Table.fmt_float tl.Pte_tracheotomy.Scenarios.t2;
      ">= T_safe:2->1 = 1.5 s" ];
  Table.add_row table
    [ "t3: ventilator pause duration";
      Table.fmt_float tl.Pte_tracheotomy.Scenarios.t3; "<= 60 s (Rule 1)" ];
  Table.add_row table
    [ "t4: laser emission duration";
      Table.fmt_float tl.Pte_tracheotomy.Scenarios.t4; "<= 60 s (Rule 1)" ];
  Table.add_note table
    "single leased episode, perfect channel, surgeon cancels 10 s into the emission";
  Table.print table

(* ------------------------------------------------------------------ *)
(* F2: the stand-alone ventilator of Fig. 2                            *)
(* ------------------------------------------------------------------ *)

let f2 () =
  let open Pte_hybrid in
  let vent = Pte_tracheotomy.Ventilator.stand_alone in
  let config =
    { Executor.default_config with
      dt = 1e-3;
      sample_vars = [ ("vent-standalone", "Hvent") ];
      sample_period = 0.5 }
  in
  let exec = Executor.create ~config (System.make ~name:"f2" [ vent ]) in
  Executor.run exec ~until:30.0;
  let trace = Executor.trace exec in
  let strokes = Trace.transitions_of trace ~automaton:"vent-standalone" in
  let periods =
    let times = List.map (fun (t, _, _, _) -> t) strokes in
    match times with
    | [] | [ _ ] -> []
    | _ :: rest ->
        List.map2 (fun a b -> b -. a)
          (List.filteri (fun i _ -> i < List.length times - 1) times)
          rest
  in
  let samples =
    Pte_sim.Metrics.series trace ~automaton:"vent-standalone" ~var:"Hvent"
  in
  let heights = List.map snd samples in
  let table =
    Table.create ~title:"F2 / Fig. 2: stand-alone ventilator A'vent (30 s run)"
      ~header:[ "quantity"; "measured"; "expected" ]
      ~aligns:[ Table.Left; Table.Right; Table.Left ] ()
  in
  Table.add_row table
    [ "stroke reversals"; Table.fmt_int (List.length strokes);
      "10 (one per 3 s)" ];
  Table.add_row table
    [ "mean stroke period (s)"; Table.fmt_float (Stats.mean periods);
      "3.00 (0.3 m at 0.1 m/s)" ];
  Table.add_row table
    [ "min Hvent (m)"; Table.fmt_float (Stats.minimum heights); "0.00" ];
  Table.add_row table
    [ "max Hvent (m)"; Table.fmt_float (Stats.maximum heights); "0.30" ];
  Table.print table

(* ------------------------------------------------------------------ *)
(* F3: structure of the generated pattern automata (Figs. 3 and 5)     *)
(* ------------------------------------------------------------------ *)

let f3 () =
  let open Pte_hybrid in
  let table =
    Table.create
      ~title:"F3 / Figs. 3+5: generated pattern automata, structural inventory"
      ~header:[ "N"; "role"; "locations"; "edges"; "risky locs"; "clock vars" ]
      ~aligns:
        [ Table.Right; Table.Left; Table.Right; Table.Right; Table.Right;
          Table.Right ]
      ()
  in
  List.iter
    (fun n ->
      let p =
        if n = 2 then params
        else
          Pte_core.Synthesis.synthesize_exn
            (Pte_core.Synthesis.default_requirements
               ~entity_names:(List.init n (fun i -> Printf.sprintf "xi%d" (i + 1)))
               ~safeguards:
                 (List.init (n - 1) (fun _ ->
                      { Pte_core.Params.enter_risky_min = 2.0;
                        exit_safe_min = 1.0 })))
      in
      let row role (a : Automaton.t) =
        Table.add_row table
          [ string_of_int n; role;
            Table.fmt_int (List.length a.Automaton.locations);
            Table.fmt_int (List.length a.Automaton.edges);
            Table.fmt_int (List.length (Automaton.risky_locations a));
            Table.fmt_int (List.length a.Automaton.vars) ]
      in
      row "Supervisor (Asupvsr)" (Pte_core.Pattern.supervisor p);
      row "Participant (Aptcpnt,1)" (Pte_core.Pattern.participant p ~index:1);
      row "Initializer (Ainitzr)" (Pte_core.Pattern.initializer_ p))
    [ 2; 3; 4; 5 ];
  Table.add_note table
    "zero-dwell dispatch locations materialize the paper's footnote-2 intermediate locations";
  Table.print table

(* ------------------------------------------------------------------ *)
(* F6: the atomic elaboration example                                  *)
(* ------------------------------------------------------------------ *)

let f6 () =
  let open Pte_hybrid in
  let parent =
    Automaton.make ~name:"fig6" ~vars:[ "x" ]
      ~locations:
        [ Location.make ~flow:(Flow.Rates [ ("x", 1.0) ]) "Fall-Back";
          Location.make ~kind:Location.Risky ~flow:(Flow.Rates [ ("x", 1.0) ])
            "Risky" ]
      ~edges:
        [ Edge.make ~guard:[ Guard.atom "x" Guard.Ge 5.0 ]
            ~reset:(Reset.set "x" 0.0) ~src:"Fall-Back" ~dst:"Risky" ();
          Edge.make ~guard:[ Guard.atom "x" Guard.Ge 2.0 ]
            ~reset:(Reset.set "x" 0.0) ~src:"Risky" ~dst:"Fall-Back" () ]
      ~initial_location:"Fall-Back" ()
  in
  let child = Pte_tracheotomy.Ventilator.stand_alone in
  let elaborated = Elaboration.atomic_exn parent "Fall-Back" child in
  let table =
    Table.create
      ~title:"F6 / Fig. 6: atomic elaboration E(A, Fall-Back, A'vent)"
      ~header:[ "automaton"; "locations"; "edges"; "vars"; "initial" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Left ]
      ()
  in
  let row label (a : Automaton.t) =
    Table.add_row table
      [ label;
        Table.fmt_int (List.length a.Automaton.locations);
        Table.fmt_int (List.length a.Automaton.edges);
        Table.fmt_int (List.length a.Automaton.vars);
        a.Automaton.initial_location ]
  in
  row "A (Fig. 6a)" parent;
  row "A'vent (Fig. 2)" child;
  row "A'' = E(A, Fall-Back, A'vent)" elaborated;
  let has_edge src dst =
    List.exists
      (fun (e : Edge.t) -> e.Edge.src = src && e.Edge.dst = dst)
      elaborated.Automaton.edges
  in
  Table.add_note table
    (Printf.sprintf
       "Risky->PumpOut edge: %s; Risky->PumpIn edge: %s (paper: ingress only \
        to the child's initial location)"
       (Table.fmt_bool (has_edge "Risky" "PumpOut"))
       (Table.fmt_bool (has_edge "Risky" "PumpIn")));
  Table.add_note table
    (Printf.sprintf
       "independence (Def. 2): %s; simplicity of A'vent (Def. 3): %s"
       (Table.fmt_bool (Automaton.independent parent child))
       (Table.fmt_bool (Automaton.is_simple child)));
  Table.print table

(* ------------------------------------------------------------------ *)
(* S1-S3: the Section V failure scenarios                              *)
(* ------------------------------------------------------------------ *)

let scenario_table ~title ~note episodes =
  let table =
    Table.create ~title
      ~header:
        [ "variant"; "lease"; "emission s"; "pause s"; "failures"; "evtToStop";
          "aborts" ]
      ~aligns:
        [ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right ]
      ()
  in
  List.iter
    (fun (variant, (e : Pte_tracheotomy.Scenarios.episode)) ->
      Table.add_row table
        [ variant; Table.fmt_bool e.Pte_tracheotomy.Scenarios.lease;
          Table.fmt_float ~decimals:1
            e.Pte_tracheotomy.Scenarios.emission_duration;
          Table.fmt_float ~decimals:1
            e.Pte_tracheotomy.Scenarios.pause_duration;
          Table.fmt_int e.Pte_tracheotomy.Scenarios.failures;
          Table.fmt_int e.Pte_tracheotomy.Scenarios.evt_to_stop;
          Table.fmt_int e.Pte_tracheotomy.Scenarios.aborts ])
    episodes;
  Table.add_note table note;
  Table.print table

let sv1 () =
  scenario_table ~title:"SV1: surgeon forgets to cancel (Toff -> 1 hour)"
    ~note:
      "with the lease the laser self-stops at T_run,2=20 s; without it only \
       the SpO2 abort chain can intervene — and a blackout of those messages \
       leaves the no-lease system stuck (the paper's 'no one can terminate' \
       case)"
    [
      ( "clean channel",
        Pte_tracheotomy.Scenarios.s1_forgotten_cancel ~lease:true () );
      ( "clean channel",
        Pte_tracheotomy.Scenarios.s1_forgotten_cancel ~lease:false () );
      ( "abort blackout",
        Pte_tracheotomy.Scenarios.s1_forgotten_cancel ~abort_blackout:true
          ~lease:true () );
      ( "abort blackout",
        Pte_tracheotomy.Scenarios.s1_forgotten_cancel ~abort_blackout:true
          ~lease:false () );
    ]

let sv2 () =
  scenario_table
    ~title:"SV2: surgeon cancels but evt(laser->supervisor)Cancel is lost"
    ~note:
      "the laser stops itself either way; without the lease the supervisor \
       never learns and the ventilator's pause overruns the 60 s bound"
    [
      ("cancel lost", Pte_tracheotomy.Scenarios.s2_lost_cancel ~lease:true ());
      ("cancel lost", Pte_tracheotomy.Scenarios.s2_lost_cancel ~lease:false ());
    ]

let sv3 () =
  let outcomes, episode = Pte_tracheotomy.Scenarios.s3_c5_violated () in
  let table =
    Table.create
      ~title:
        "SV3: configuration constraint c5 deliberately violated (T_enter,2 = \
         T_enter,1)"
      ~header:[ "check"; "verdict" ]
      ~aligns:[ Table.Left; Table.Left ] ()
  in
  List.iter
    (fun (o : Pte_core.Constraints.outcome) ->
      if not o.Pte_core.Constraints.ok then
        Table.add_row table
          [ Pte_core.Constraints.condition_name o.Pte_core.Constraints.condition;
            "VIOLATED — " ^ o.Pte_core.Constraints.detail ])
    outcomes;
  Table.add_row table
    [ "simulated episode";
      Fmt.str "%a" Pte_tracheotomy.Scenarios.pp_episode episode ];
  List.iter
    (fun v ->
      Table.add_note table (Fmt.str "%a" Pte_core.Monitor.pp_violation v))
    episode.Pte_tracheotomy.Scenarios.violations;
  Table.print table

(* ------------------------------------------------------------------ *)
(* V1: Theorem 1, verified by exhaustive zone reachability             *)
(* ------------------------------------------------------------------ *)

let v1 () =
  let table =
    Table.create
      ~title:"V1 / Theorem 1: zone-reachability verdicts under arbitrary loss"
      ~header:
        [ "system"; "states"; "transitions"; "exhaustive"; "violations";
          "time s" ]
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Left; Table.Left;
          Table.Right ]
      ()
  in
  let module J = Pte_util.Json in
  let run name label check =
    let t0 = Unix.gettimeofday () in
    let r = check () in
    let dt = Unix.gettimeofday () -. t0 in
    let kinds =
      List.sort_uniq compare
        (List.map
           (fun (v : Pte_mc.Reach.violation) ->
             Fmt.str "%a" Pte_mc.Reach.pp_violation_kind v.Pte_mc.Reach.kind)
           r.Pte_mc.Reach.violations)
    in
    Table.add_row table
      [ label;
        Table.fmt_int r.Pte_mc.Reach.states;
        Table.fmt_int r.Pte_mc.Reach.transitions;
        Table.fmt_bool r.Pte_mc.Reach.exhausted;
        (if kinds = [] then "none" else String.concat " | " kinds);
        Table.fmt_float ~decimals:1 dt ];
    let count n = J.Num (Float.of_int n) in
    J.Obj
      [ ("name", J.Str name);
        ("states", count r.Pte_mc.Reach.states);
        ("transitions", count r.Pte_mc.Reach.transitions);
        ("discrete_states", count r.Pte_mc.Reach.discrete_states);
        ("max_zones_per_key", count r.Pte_mc.Reach.max_zones_per_key);
        ("exhausted", J.Bool r.Pte_mc.Reach.exhausted);
        ("violation_kinds", J.Arr (List.map (fun k -> J.Str k) kinds));
        ("wall_s", J.Num dt);
        ("states_per_s", J.Num (Float.of_int r.Pte_mc.Reach.states /. dt)) ]
  in
  let with_lease =
    run "with_lease" "with lease (c1-c7 hold)" (fun () ->
        Pte_mc.Reach.check_pattern params)
  in
  let without_lease =
    run "without_lease" "without lease" (fun () ->
        Pte_mc.Reach.check_pattern ~lease:false
          ~config:{ Pte_mc.Reach.default_config with stop_at_first = true }
          params)
  in
  let dwell_60 =
    run "with_lease_dwell_60" "with lease, dwell bound 60 s (trial rule)"
      (fun () -> Pte_mc.Reach.check_pattern ~dwell_bound:60.0 params)
  in
  Table.add_note table
    "exhaustive + none = a machine-checked proof of the PTE safety rules for \
     this configuration under arbitrary loss";
  Table.print table;
  (* deterministic: the seed field only keeps the BENCH_*.json schema *)
  write_bench_json ~bench:"V1" ~seed:0
    ~params:
      [ ("config", J.Str "case_study");
        ( "max_states",
          J.Num
            (Float.of_int
               Pte_mc.Reach.default_config.Pte_mc.Reach.max_states) ) ]
    ~metrics:[ with_lease; without_lease; dwell_60 ]

(* ------------------------------------------------------------------ *)
(* V2: ablations of each Theorem 1 condition                           *)
(* ------------------------------------------------------------------ *)

let v2 () =
  let with_entity i f =
    let entities = Array.map Fun.id params.Pte_core.Params.entities in
    entities.(i) <- f entities.(i);
    { params with Pte_core.Params.entities }
  in
  let ablations =
    [
      ( "c2", "T_LS1 <= N*T_wait (tiny participant lease)",
        with_entity 0 (fun e ->
            { e with Pte_core.Params.t_enter_max = 1.0; t_run_max = 2.0;
              t_exit = 2.0 }) );
      ("c3", "T_req,N above T_LS1",
       { params with Pte_core.Params.t_req_max = 50.0 });
      ( "c4", "initializer lease longer than T_LS1",
        with_entity 1 (fun e -> { e with Pte_core.Params.t_run_max = 60.0 }) );
      ( "c5", "T_enter,2 = T_enter,1 (paper's scenario)",
        with_entity 1 (fun e -> { e with Pte_core.Params.t_enter_max = 3.0 }) );
      ( "c6", "outer lease shorter than inner",
        with_entity 0 (fun e -> { e with Pte_core.Params.t_run_max = 20.0 }) );
      ( "c7", "T_exit,1 below T_safe:2->1",
        with_entity 0 (fun e -> { e with Pte_core.Params.t_exit = 1.0 }) );
    ]
  in
  let table =
    Table.create
      ~title:
        "V2: breaking each Theorem 1 condition — checker verdict vs model \
         checker"
      ~header:[ "cond"; "ablation"; "checker"; "model checker (bounded)" ]
      ~aligns:[ Table.Left; Table.Left; Table.Left; Table.Left ] ()
  in
  List.iter
    (fun (cname, description, p) ->
      let violated =
        List.map Pte_core.Constraints.condition_name
          (Pte_core.Constraints.violated (Pte_core.Constraints.check p))
      in
      let r =
        Pte_mc.Reach.check_pattern
          ~config:{ Pte_mc.Reach.max_states = 40_000; stop_at_first = true }
          p
      in
      let mc =
        match r.Pte_mc.Reach.violations with
        | [] ->
            Fmt.str "no violation in %d states%s" r.Pte_mc.Reach.states
              (if r.Pte_mc.Reach.exhausted then " [exhaustive]" else "")
        | v :: _ ->
            Fmt.str "%a" Pte_mc.Reach.pp_violation_kind v.Pte_mc.Reach.kind
      in
      Table.add_row table
        [ cname; description; "flags " ^ String.concat "," violated; mc ])
    ablations;
  Table.add_note table
    "c1 (positivity) is rejected statically by the checker; it has no \
     executable ablation";
  Table.add_note table
    "a clean bounded sweep for an ablation (e.g. c3) means the condition \
     guards self-reset/liveness arguments of the proof rather than an \
     immediately reachable PTE breach";
  Table.print table

(* ------------------------------------------------------------------ *)
(* X1: loss-rate sweep                                                 *)
(* ------------------------------------------------------------------ *)

let x1 () =
  let table =
    Table.create
      ~title:
        "X1: average loss-rate sweep, with vs without lease (30-min trials)"
      ~header:
        [ "avg loss"; "emissions (lease)"; "failures (lease)";
          "emissions (none)"; "failures (none)"; "longest pause none s" ]
      ~aligns:
        [ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right ]
      ()
  in
  let losses = [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7 ] in
  let rows = Pte_tracheotomy.Trial.loss_sweep ~losses () in
  List.iter
    (fun (loss, (w : Pte_tracheotomy.Trial.replicated), n) ->
      let w = w.Pte_tracheotomy.Trial.rep0
      and n = n.Pte_tracheotomy.Trial.rep0 in
      Table.add_row table
        [ Fmt.str "%.0f%%" (100.0 *. loss);
          Table.fmt_int w.Pte_tracheotomy.Trial.emissions;
          Table.fmt_int w.Pte_tracheotomy.Trial.failures;
          Table.fmt_int n.Pte_tracheotomy.Trial.emissions;
          Table.fmt_int n.Pte_tracheotomy.Trial.failures;
          Table.fmt_float ~decimals:1 n.Pte_tracheotomy.Trial.longest_pause ])
    rows;
  Table.add_note table
    "with-lease failures stay at 0 at every loss rate (Theorem 1); no-lease \
     failures appear as soon as recovery messages start to vanish";
  Table.print table;
  (* replicated variant: the campaign engine turns each sweep point into
     reps independently-seeded trials with 95% CIs *)
  let reps = 5 in
  let agg =
    Table.create
      ~title:
        (Fmt.str "X1b: the same sweep at %d replicates per point (mean ±95%% CI)"
           reps)
      ~header:
        [ "avg loss"; "failures (lease)"; "failures (none)";
          "failing reps (none)"; "longest pause none s" ]
      ~aligns:[ Table.Right; Table.Left; Table.Left; Table.Right; Table.Left ]
      ()
  in
  List.iter
    (fun (loss, (w : Pte_tracheotomy.Trial.replicated), n) ->
      let wa = w.Pte_tracheotomy.Trial.agg and na = n.Pte_tracheotomy.Trial.agg in
      Table.add_row agg
        [ Fmt.str "%.0f%%" (100.0 *. loss);
          Fmt.str "%a" Pte_campaign.Aggregate.pp_summary
            wa.Pte_tracheotomy.Trial.failures;
          Fmt.str "%a" Pte_campaign.Aggregate.pp_summary
            na.Pte_tracheotomy.Trial.failures;
          Fmt.str "%d/%d" na.Pte_tracheotomy.Trial.failure_reps
            na.Pte_tracheotomy.Trial.reps;
          Fmt.str "%a" Pte_campaign.Aggregate.pp_summary
            na.Pte_tracheotomy.Trial.longest_pause ])
    (Pte_tracheotomy.Trial.loss_sweep ~losses:[ 0.0; 0.2; 0.4; 0.6 ] ~reps ());
  Table.add_note agg
    "replicate 0 of each point reuses the X1 seed; replicates 1+ are split off \
     the campaign master seed, so the aggregate is reproducible at any worker \
     count";
  Table.print agg

(* ------------------------------------------------------------------ *)
(* A1: availability vs loss, bare vs reliable transport                *)
(* ------------------------------------------------------------------ *)

let a1 () =
  let module T = Pte_tracheotomy.Trial in
  let losses, reps, horizon, seed =
    if !smoke then ([ 0.0; 0.3; 0.6 ], 2, 300.0, 900)
    else ([ 0.0; 0.15; 0.3; 0.45; 0.6 ], 5, 1800.0, 900)
  in
  let tcfg = Pte_net.Transport.default_config in
  let budget =
    Pte_net.Transport.worst_case_latency tcfg ~frame_delay:0.03
  in
  let rows = T.availability_sweep ~reps ~horizon ~seed ~losses () in
  let table =
    Table.create
      ~title:
        (Fmt.str
           "A1: laser availability vs loss, bare vs reliable transport \
            (with lease, %g s trials, %d replicates)"
           horizon reps)
      ~header:
        [ "avg loss"; "emissions (bare)"; "emissions (reliable)";
          "failures bare/rel"; "retx (rel)"; "gave-up (rel)" ]
      ~aligns:
        [ Table.Right; Table.Left; Table.Left; Table.Right; Table.Right;
          Table.Right ]
      ()
  in
  List.iter
    (fun (loss, (b : T.replicated), (r : T.replicated)) ->
      Table.add_row table
        [ Fmt.str "%.0f%%" (100.0 *. loss);
          Fmt.str "%a" Pte_campaign.Aggregate.pp_summary b.T.agg.T.emissions;
          Fmt.str "%a" Pte_campaign.Aggregate.pp_summary r.T.agg.T.emissions;
          Fmt.str "%d / %d" b.T.agg.T.failure_reps r.T.agg.T.failure_reps;
          Table.fmt_int r.T.rep0.T.retransmissions;
          Table.fmt_int r.T.rep0.T.gave_up ])
    rows;
  Table.add_note table
    (Fmt.str
       "reliable = ACK + <= %d retransmissions (worst-case latency %.2f s, \
        inside the %.1f s Theorem-1 slack: c1-c7 recheck passes)"
       tcfg.Pte_net.Transport.max_retries budget
       (Pte_core.Constraints.max_delay_budget params));
  Table.add_note table
    "failures must be 0 in every with-lease cell, bare or reliable; the \
     availability gap opens as loss grows";
  Table.print table;
  let module J = Pte_util.Json in
  let metric_rows =
    List.concat_map
      (fun (loss, (b : T.replicated), (r : T.replicated)) ->
        List.concat_map
          (fun (transport, (row : T.replicated)) ->
            [ J.Obj
                ([ ("name", J.Str "emissions"); ("loss", J.Num loss);
                   ("transport", J.Str transport) ]
                @ summary_fields row.T.agg.T.emissions);
              J.Obj
                ([ ("name", J.Str "failures"); ("loss", J.Num loss);
                   ("transport", J.Str transport) ]
                @ summary_fields row.T.agg.T.failures) ])
          [ ("bare", b); ("reliable", r) ])
      rows
  in
  write_bench_json ~bench:"A1" ~seed
    ~params:
      [ ("horizon", J.Num horizon); ("reps", J.Num (Float.of_int reps));
        ("losses", J.Arr (List.map (fun l -> J.Num l) losses));
        ("max_retries", J.Num (Float.of_int tcfg.Pte_net.Transport.max_retries));
        ("base_rto", J.Num tcfg.Pte_net.Transport.base_rto);
        ("multiplier", J.Num tcfg.Pte_net.Transport.multiplier);
        ("cap", J.Num tcfg.Pte_net.Transport.cap);
        ("jitter", J.Num tcfg.Pte_net.Transport.jitter);
        ("worst_case_latency", J.Num budget) ]
    ~metrics:metric_rows

(* ------------------------------------------------------------------ *)
(* A2: availability across transports (bare / ARQ / time-triggered)    *)
(* ------------------------------------------------------------------ *)

(* N = 3 leg of A2: the multi-initiator chain of examples/, one trial
   per (loss, transport). Returns the emissions of the top entity, the
   violation count, and the transport's measured/bounded latencies. *)
let a2_chain_trial ~params:p ~config ~top ~horizon ~transport ~loss ~seed =
  let system = Pte_core.Multi.system config in
  let net =
    Pte_net.Star.create ~base:p.Pte_core.Params.supervisor
      ~remotes:(Pte_core.Pattern.remotes p)
      ~loss_kind:
        (if loss = 0.0 then Pte_net.Loss.Perfect
         else Pte_net.Loss.wifi_interference ~average_loss:loss)
      ~rng:(Rng.create ((seed * 2) + 1))
      ()
  in
  let engine =
    Pte_sim.Engine.create
      ~config:{ Pte_hybrid.Executor.default_config with dt = 0.01 }
      ~net ~transport ~seed system
  in
  List.iter
    (fun (automaton, request, cancel) ->
      Pte_sim.Scenario.exponential_stimulus engine ~mean:40.0 ~automaton
        ~armed_in:"Fall-Back" ~root:request ();
      let emitting =
        if String.equal automaton top then "Risky Core"
        else Pte_core.Multi.init_suffix "Risky Core"
      in
      Pte_sim.Scenario.exponential_stimulus engine ~mean:10.0 ~automaton
        ~armed_in:emitting ~root:cancel ())
    (Pte_core.Multi.stimuli config);
  Pte_sim.Engine.run engine ~until:horizon;
  let trace = Pte_sim.Engine.trace engine in
  let spec = Pte_core.Rules.of_params p in
  let report = Pte_core.Monitor.analyze_system trace system spec ~horizon in
  let transport = Option.get (Pte_sim.Engine.transport engine) in
  let tstats = Pte_net.Transport.stats transport in
  ( Pte_sim.Metrics.entries trace ~automaton:top ~location:"Risky Core",
    Pte_core.Monitor.episodes report,
    tstats.Pte_net.Transport.worst_latency,
    Option.map Pte_sched.Schedule.worst_case_latency
      (Pte_net.Transport.schedule transport) )

let a2 () =
  let module T = Pte_tracheotomy.Trial in
  let module J = Pte_util.Json in
  let losses, reps, horizon, chain_horizon, seed =
    if !smoke then ([ 0.0; 0.3 ], 1, 300.0, 120.0, 940)
    else ([ 0.0; 0.3; 0.6 ], 3, 1800.0, 600.0, 940)
  in
  let transports =
    [ ("bare", `Bare);
      ("reliable", `Reliable Pte_net.Transport.default_config);
      (* budget left unset: Emulation.build fills in the Theorem-1
         budget and rejects any schedule that overshoots it *)
      ("scheduled", `Scheduled Pte_sched.Synth.default_policy) ]
  in
  (* --- N = 2: the case-study emulation, campaign-replicated --- *)
  let rows = T.transport_matrix ~reps ~horizon ~seed ~transports ~losses () in
  let table =
    Table.create
      ~title:
        (Fmt.str
           "A2: availability vs loss across transports, N=2 case study \
            (with lease, %g s trials, %d replicates)"
           horizon reps)
      ~header:
        [ "avg loss"; "emissions (bare)"; "emissions (reliable)";
          "emissions (scheduled)"; "failures b/r/s"; "sched worst/bound s" ]
      ~aligns:
        [ Table.Right; Table.Left; Table.Left; Table.Left; Table.Right;
          Table.Right ]
      ()
  in
  let violation_cells = ref 0 in
  let bound_breaches = ref 0 in
  let note_cell (row : T.replicated) =
    if row.T.agg.T.failure_reps > 0 then incr violation_cells;
    match row.T.rep0.T.schedule with
    | None -> ()
    | Some sched ->
        if
          row.T.rep0.T.worst_latency
          > Pte_sched.Schedule.worst_case_latency sched
        then incr bound_breaches
  in
  List.iter
    (fun (loss, cells) ->
      List.iter (fun (_, row) -> note_cell row) cells;
      let get label = List.assoc label cells in
      let b = get "bare" and r = get "reliable" and s = get "scheduled" in
      Table.add_row table
        [ Fmt.str "%.0f%%" (100.0 *. loss);
          Fmt.str "%a" Pte_campaign.Aggregate.pp_summary b.T.agg.T.emissions;
          Fmt.str "%a" Pte_campaign.Aggregate.pp_summary r.T.agg.T.emissions;
          Fmt.str "%a" Pte_campaign.Aggregate.pp_summary s.T.agg.T.emissions;
          Fmt.str "%d / %d / %d" b.T.agg.T.failure_reps r.T.agg.T.failure_reps
            s.T.agg.T.failure_reps;
          Fmt.str "%.2f / %.2f" s.T.rep0.T.worst_latency
            (match s.T.rep0.T.schedule with
            | Some sched -> Pte_sched.Schedule.worst_case_latency sched
            | None -> nan) ])
    rows;
  Table.add_note table
    "failures must be 0 in every with-lease cell; the scheduled mode's \
     measured worst delivery latency must stay under its synthesized bound";
  Table.print table;
  (* --- N = 3: the synthesized multi-initiator chain --- *)
  let entity_names = [ "pump"; "xray"; "carm" ] in
  let params3 =
    Pte_core.Synthesis.synthesize_exn
      (Pte_core.Synthesis.default_requirements ~entity_names
         ~safeguards:
           [ { Pte_core.Params.enter_risky_min = 2.0; exit_safe_min = 1.0 };
             { Pte_core.Params.enter_risky_min = 1.0; exit_safe_min = 0.5 } ])
  in
  let config3 = { Pte_core.Multi.params = params3; initiators = [ 1; 3 ] } in
  let top = List.nth entity_names 2 in
  let budget3 = Pte_core.Constraints.max_delay_budget params3 in
  (* reliable leg: shrink the retry budget until Theorem 1 admits it *)
  let probe =
    Pte_net.Star.create ~base:params3.Pte_core.Params.supervisor
      ~remotes:(Pte_core.Pattern.remotes params3)
      ~loss_kind:Pte_net.Loss.Perfect ~rng:(Rng.create 0) ()
  in
  let rec fit (tcfg : Pte_net.Transport.config) =
    let latency =
      Pte_net.Transport.worst_case_latency tcfg
        ~frame_delay:(Pte_net.Star.worst_frame_delay probe)
    in
    if latency <= budget3 || tcfg.Pte_net.Transport.max_retries = 0 then tcfg
    else fit { tcfg with Pte_net.Transport.max_retries = tcfg.max_retries - 1 }
  in
  let tcfg3 = fit Pte_net.Transport.default_config in
  let transports3 =
    [ ("bare", `Bare);
      ("reliable", `Reliable tcfg3);
      ( "scheduled",
        (* the engine layer has no emulation wrapper here, so the
           Theorem-1 budget is pinned explicitly *)
        `Scheduled
          { Pte_sched.Synth.default_policy with budget = Some budget3 } ) ]
  in
  let chain =
    Table.create
      ~title:
        (Fmt.str
           "A2b: N=3 multi-initiator chain, sessions of the top entity \
            (%g s trials)"
           chain_horizon)
      ~header:
        [ "avg loss"; "sessions (bare)"; "sessions (reliable)";
          "sessions (scheduled)"; "viol b/r/s"; "sched worst/bound s" ]
      ~aligns:
        [ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right ]
      ()
  in
  let chain_rows =
    List.mapi
      (fun i loss ->
        let cells =
          List.map
            (fun (label, transport) ->
              let sessions, violations, worst, bound =
                a2_chain_trial ~params:params3 ~config:config3 ~top
                  ~horizon:chain_horizon ~transport ~loss ~seed:(seed + 50 + i)
              in
              if violations > 0 then incr violation_cells;
              (match bound with
              | Some b when worst > b -> incr bound_breaches
              | _ -> ());
              (label, sessions, violations, worst, bound))
            transports3
        in
        let get label =
          List.find (fun (l, _, _, _, _) -> String.equal l label) cells
        in
        let _, sb, vb, _, _ = get "bare" in
        let _, sr, vr, _, _ = get "reliable" in
        let _, ss, vs, ws, bs = get "scheduled" in
        Table.add_row chain
          [ Fmt.str "%.0f%%" (100.0 *. loss);
            Table.fmt_int sb; Table.fmt_int sr; Table.fmt_int ss;
            Fmt.str "%d / %d / %d" vb vr vs;
            Fmt.str "%.2f / %.2f" ws (Option.value bs ~default:nan) ];
        (loss, cells))
      losses
  in
  Table.add_note chain
    (Fmt.str
       "synthesized chain budget %.3f s; reliable fitted to %d retries; all \
        initiator sessions are lease-protected, so violations must be 0"
       budget3 tcfg3.Pte_net.Transport.max_retries);
  Table.print chain;
  (* --- machine-readable companion --- *)
  let metric_rows_n2 =
    List.concat_map
      (fun (loss, cells) ->
        List.concat_map
          (fun (transport, (row : T.replicated)) ->
            let base name (s : Pte_campaign.Aggregate.summary) =
              J.Obj
                ([ ("name", J.Str name); ("entities", J.Num 2.0);
                   ("loss", J.Num loss); ("transport", J.Str transport) ]
                @ summary_fields s)
            in
            let scalar name v =
              J.Obj
                [ ("name", J.Str name); ("entities", J.Num 2.0);
                  ("loss", J.Num loss); ("transport", J.Str transport);
                  ("mean", J.Num v); ("ci95", J.Num 0.0); ("n", J.Num 1.0) ]
            in
            [ base "emissions" row.T.agg.T.emissions;
              base "failures" row.T.agg.T.failures;
              scalar "worst_latency" row.T.rep0.T.worst_latency ]
            @ (match row.T.rep0.T.schedule with
              | None -> []
              | Some sched ->
                  [ scalar "sched_bound"
                      (Pte_sched.Schedule.worst_case_latency sched) ]))
          cells)
      rows
  in
  let metric_rows_n3 =
    List.concat_map
      (fun (loss, cells) ->
        List.concat_map
          (fun (transport, sessions, violations, worst, bound) ->
            let scalar name v =
              J.Obj
                [ ("name", J.Str name); ("entities", J.Num 3.0);
                  ("loss", J.Num loss); ("transport", J.Str transport);
                  ("mean", J.Num v); ("ci95", J.Num 0.0); ("n", J.Num 1.0) ]
            in
            [ scalar "emissions" (Float.of_int sessions);
              scalar "failures" (Float.of_int violations);
              scalar "worst_latency" worst ]
            @
            match bound with
            | None -> []
            | Some b -> [ scalar "sched_bound" b ])
          cells)
      chain_rows
  in
  write_bench_json ~bench:"A2" ~seed
    ~params:
      [ ("horizon", J.Num horizon);
        ("chain_horizon", J.Num chain_horizon);
        ("reps", J.Num (Float.of_int reps));
        ("losses", J.Arr (List.map (fun l -> J.Num l) losses));
        ("entity_counts", J.Arr [ J.Num 2.0; J.Num 3.0 ]);
        ("chain_budget", J.Num budget3);
        ("violation_cells", J.Num (Float.of_int !violation_cells));
        ("bound_breaches", J.Num (Float.of_int !bound_breaches)) ]
    ~metrics:(metric_rows_n2 @ metric_rows_n3);
  (* hard gates — `dune build @bench-smoke` fails CI on either *)
  if !violation_cells > 0 then
    Fmt.failwith "A2: %d with-lease cells had violations (expected 0)"
      !violation_cells;
  if !bound_breaches > 0 then
    Fmt.failwith
      "A2: scheduled worst latency exceeded its synthesized bound in %d cells"
      !bound_breaches

(* ------------------------------------------------------------------ *)
(* A3: adaptive transport vs the statics under time-varying loss       *)
(* ------------------------------------------------------------------ *)

let a3 () =
  let module T = Pte_tracheotomy.Trial in
  let module E = Pte_tracheotomy.Emulation in
  let module J = Pte_util.Json in
  let horizon, reps, seed =
    if !smoke then (300.0, 1, 950) else (1800.0, 3, 950)
  in
  let switch_at = horizon /. 3.0 in
  let hi = 0.6 in
  (* the high-loss channel is the Table-I Gilbert-Elliott model, so the
     sustained cell exercises genuine loss bursts, not i.i.d. drops *)
  let scenarios =
    [ ("perfect", Pte_net.Loss.Perfect, []);
      ( "step-up",
        Pte_net.Loss.Perfect,
        [ Pte_faults.Plan.loss_step ~at:switch_at ~loss:hi ] );
      ( "step-down",
        Pte_net.Loss.wifi_interference ~average_loss:hi,
        [ Pte_faults.Plan.loss_step ~at:switch_at ~loss:0.0 ] );
      ("ge-burst", Pte_net.Loss.wifi_interference ~average_loss:hi, []) ]
  in
  let transports =
    [ ("bare", `Bare);
      ("reliable", `Reliable Pte_net.Transport.default_config);
      ("scheduled", `Scheduled Pte_sched.Synth.default_policy);
      (* budgets left unset: Emulation.build fills in the Theorem-1
         budget, for the healthy recheck and every escalation *)
      ("adaptive", `Adaptive Pte_net.Transport.default_adaptive) ]
  in
  let cells =
    Array.of_list
      (List.concat
         (List.mapi
            (fun i (_, loss, profile) ->
              List.map
                (fun (_, transport) ->
                  {
                    E.default with
                    E.lease = true;
                    horizon;
                    seed = seed + i;
                    loss;
                    faults =
                      { Pte_faults.Plan.empty with
                        Pte_faults.Plan.loss_profile = profile };
                    transport;
                  })
                transports)
            scenarios))
  in
  let campaign, full = T.run_cells ~reps ~seed cells in
  let width = List.length transports in
  let row si ti =
    let i = (si * width) + ti in
    match full.(i * reps) with
    | Some rep0 ->
        { T.rep0; agg = T.aggregate_of_cell campaign.Pte_campaign.Runner.cells.(i) }
    | None -> assert false (* nothing resumed: every job ran here *)
  in
  let table =
    Table.create
      ~title:
        (Fmt.str
           "A3: adaptive transport vs the static modes under time-varying \
            loss (with lease, %g s trials, %d replicates, steps at %g s)"
           horizon reps switch_at)
      ~header:
        [ "channel"; "emissions (bare)"; "emissions (reliable)";
          "emissions (scheduled)"; "emissions (adaptive)"; "failures b/r/s/a";
          "switches up/down/refused" ]
      ~aligns:
        [ Table.Left; Table.Left; Table.Left; Table.Left; Table.Left;
          Table.Right; Table.Right ]
      ()
  in
  let violation_cells = ref 0 in
  List.iteri
    (fun si (label, _, _) ->
      let cells = List.mapi (fun ti _ -> row si ti) transports in
      List.iter
        (fun (r : T.replicated) ->
          if r.T.agg.T.failure_reps > 0 then incr violation_cells)
        cells;
      let get ti = List.nth cells ti in
      let b = get 0 and r = get 1 and sc = get 2 and a = get 3 in
      Table.add_row table
        [ label;
          Fmt.str "%a" Pte_campaign.Aggregate.pp_summary b.T.agg.T.emissions;
          Fmt.str "%a" Pte_campaign.Aggregate.pp_summary r.T.agg.T.emissions;
          Fmt.str "%a" Pte_campaign.Aggregate.pp_summary sc.T.agg.T.emissions;
          Fmt.str "%a" Pte_campaign.Aggregate.pp_summary a.T.agg.T.emissions;
          Fmt.str "%d / %d / %d / %d" b.T.agg.T.failure_reps
            r.T.agg.T.failure_reps sc.T.agg.T.failure_reps
            a.T.agg.T.failure_reps;
          Fmt.str "%d / %d / %d" a.T.rep0.T.mode_switches_up
            a.T.rep0.T.mode_switches_down a.T.rep0.T.switch_refusals ])
    scenarios;
  Table.add_note table
    "failures must be 0 in every cell; the step cells must contain committed \
     switches (up on step-up, down on step-down); at sustained high loss the \
     adaptive mean must reach the best static mode, and on the perfect \
     channel stay within 5% of bare";
  Table.print table;
  (* --- machine-readable companion --- *)
  let metric_rows =
    List.concat
      (List.mapi
         (fun si (label, _, _) ->
           List.concat
             (List.mapi
                (fun ti (tlabel, _) ->
                  let r = row si ti in
                  let base name (sm : Pte_campaign.Aggregate.summary) =
                    J.Obj
                      ([ ("name", J.Str name); ("channel", J.Str label);
                         ("transport", J.Str tlabel) ]
                      @ summary_fields sm)
                  in
                  let scalar name v =
                    J.Obj
                      [ ("name", J.Str name); ("channel", J.Str label);
                        ("transport", J.Str tlabel); ("mean", J.Num v);
                        ("ci95", J.Num 0.0); ("n", J.Num 1.0) ]
                  in
                  [ base "emissions" r.T.agg.T.emissions;
                    base "failures" r.T.agg.T.failures ]
                  @
                  if String.equal tlabel "adaptive" then
                    [ scalar "switches_up"
                        (Float.of_int r.T.rep0.T.mode_switches_up);
                      scalar "switches_down"
                        (Float.of_int r.T.rep0.T.mode_switches_down);
                      scalar "switch_refusals"
                        (Float.of_int r.T.rep0.T.switch_refusals) ]
                  else [])
                transports))
         scenarios)
  in
  write_bench_json ~bench:"A3" ~seed
    ~params:
      [ ("horizon", J.Num horizon);
        ("reps", J.Num (Float.of_int reps));
        ("switch_at", J.Num switch_at);
        ("high_loss", J.Num hi);
        ("violation_cells", J.Num (Float.of_int !violation_cells)) ]
    ~metrics:metric_rows;
  (* hard gates — `dune build @bench-smoke` fails CI on any of these *)
  if !violation_cells > 0 then
    Fmt.failwith "A3: %d with-lease cells had violations (expected 0)"
      !violation_cells;
  let scenario_index label =
    let rec go i = function
      | [] -> invalid_arg label
      | (l, _, _) :: rest -> if String.equal l label then i else go (i + 1) rest
    in
    go 0 scenarios
  in
  let adaptive label = row (scenario_index label) 3 in
  let up = (adaptive "step-up").T.rep0.T.mode_switches_up in
  if up < 1 then
    Fmt.failwith "A3: step-up trial committed no escalation (expected >= 1)";
  let down = (adaptive "step-down").T.rep0.T.mode_switches_down in
  if down < 1 then
    Fmt.failwith
      "A3: step-down trial committed no de-escalation (expected >= 1)";
  (* the emission gates compare replicate means; smoke trials are too
     short for integer emission counts to carry a 5% comparison *)
  if not !smoke then begin
    let mean label ti = (row (scenario_index label) ti).T.agg.T.emissions.Pte_campaign.Aggregate.mean in
    let best_static =
      Float.max (mean "ge-burst" 0) (Float.max (mean "ge-burst" 1) (mean "ge-burst" 2))
    in
    if mean "ge-burst" 3 < best_static then
      Fmt.failwith
        "A3: adaptive emissions %.1f below the best static mode %.1f at \
         sustained high loss"
        (mean "ge-burst" 3) best_static;
    if mean "perfect" 3 < 0.95 *. mean "perfect" 0 then
      Fmt.failwith
        "A3: adaptive emissions %.1f more than 5%% below bare %.1f on the \
         perfect channel"
        (mean "perfect" 3) (mean "perfect" 0)
  end

(* ------------------------------------------------------------------ *)
(* X2: synthesis scaling with the chain length                         *)
(* ------------------------------------------------------------------ *)

let x2 () =
  let table =
    Table.create
      ~title:
        "X2: synthesized configurations vs chain length N (2 s/1 s safeguards)"
      ~header:
        [ "N"; "T_LS1 s"; "dwell bound s"; "T_enter,N s"; "T_run,1 s"; "c1-c7" ]
      ~aligns:
        [ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Left ]
      ()
  in
  List.iter
    (fun n ->
      let p =
        Pte_core.Synthesis.synthesize_exn
          (Pte_core.Synthesis.default_requirements
             ~entity_names:(List.init n (fun i -> Printf.sprintf "xi%d" (i + 1)))
             ~safeguards:
               (List.init (n - 1) (fun _ ->
                    { Pte_core.Params.enter_risky_min = 2.0;
                      exit_safe_min = 1.0 })))
      in
      Table.add_row table
        [ string_of_int n;
          Table.fmt_float ~decimals:1 (Pte_core.Params.t_ls1 p);
          Table.fmt_float ~decimals:1 (Pte_core.Params.risky_dwell_bound p);
          Table.fmt_float ~decimals:1
            (Pte_core.Params.initializer_ p).Pte_core.Params.t_enter_max;
          Table.fmt_float ~decimals:1
            p.Pte_core.Params.entities.(0).Pte_core.Params.t_run_max;
          Table.fmt_bool (Pte_core.Constraints.satisfies p) ])
    [ 2; 3; 4; 5; 6; 7; 8 ];
  Table.add_note table
    "condition c6 forces outer leases to dominate inner ones, so T_run,1 and \
     the dwell bound grow linearly with N";
  Table.print table

(* ------------------------------------------------------------------ *)
(* X3: the multiple-initializer extension                              *)
(* ------------------------------------------------------------------ *)

let x3 () =
  let config =
    { Pte_core.Multi.params; initiators = [ 1; 2 ] }
  in
  let table =
    Table.create
      ~title:
        "X3: multiple-initializer extension (ventilator may request solo \
         pauses; laser requests full sessions)"
      ~header:[ "quantity"; "value" ]
      ~aligns:[ Table.Left; Table.Left ] ()
  in
  (match Pte_core.Multi.check config with
  | Ok outcomes ->
      Table.add_row table
        [ "constraints (c1-c7 + per-initiator c3)";
          (if Pte_core.Constraints.all_ok outcomes then "all hold"
           else "VIOLATED") ]
  | Error e -> Table.add_row table [ "constraints"; "error: " ^ e ]);
  let system = Pte_core.Multi.system config in
  let rng = Pte_util.Rng.create 77 in
  let net =
    Pte_net.Star.create ~base:"supervisor"
      ~remotes:[ "ventilator"; "laser" ]
      ~loss_kind:(Pte_net.Loss.wifi_interference ~average_loss:0.3)
      ~rng ()
  in
  let engine =
    Pte_sim.Engine.create
      ~config:{ Pte_hybrid.Executor.default_config with dt = 0.01 }
      ~net ~seed:78 system
  in
  List.iter
    (fun (automaton, request, cancel) ->
      Pte_sim.Scenario.exponential_stimulus engine ~mean:30.0 ~automaton
        ~armed_in:"Fall-Back" ~root:request ();
      let emitting =
        if String.equal automaton "laser" then "Risky Core"
        else Pte_core.Multi.init_suffix "Risky Core"
      in
      Pte_sim.Scenario.exponential_stimulus engine ~mean:10.0 ~automaton
        ~armed_in:emitting ~root:cancel ())
    (Pte_core.Multi.stimuli config);
  let horizon = 1800.0 in
  Pte_sim.Engine.run engine ~until:horizon;
  let trace = Pte_sim.Engine.trace engine in
  let spec = Pte_core.Rules.of_params params in
  let report = Pte_core.Monitor.analyze_system trace system spec ~horizon in
  let count automaton location =
    Pte_sim.Metrics.entries trace ~automaton ~location
  in
  Table.add_row table
    [ "30-min trial: laser sessions";
      Table.fmt_int (count "laser" "Risky Core") ];
  Table.add_row table
    [ "30-min trial: ventilator solo pauses";
      Table.fmt_int (count "ventilator" (Pte_core.Multi.init_suffix "Risky Core")) ];
  Table.add_row table
    [ "30-min trial: ventilator participant leases";
      Table.fmt_int (count "ventilator" "Risky Core") ];
  Table.add_row table
    [ "30-min trial: PTE violation episodes";
      Table.fmt_int (Pte_core.Monitor.episodes report) ];
  let r =
    Pte_mc.Reach.check
      ~config:{ Pte_mc.Reach.default_config with max_states = 100_000 }
      ~system ~spec ()
  in
  Table.add_row table
    [ "model checker (interleaved initiators)";
      Fmt.str "%d states, %d violations%s" r.Pte_mc.Reach.states
        (List.length r.Pte_mc.Reach.violations)
        (if r.Pte_mc.Reach.exhausted then " [exhaustive]" else " [bounded]") ];
  Table.add_note table
    "the paper defers multiple Initializers; sessions are serialized by the \
     supervisor and each is lease-protected, so Theorem 1 applies per session";
  Table.print table

(* ------------------------------------------------------------------ *)
(* R1: deterministic fault injection — coverage matrix + fuzz/shrink   *)
(* ------------------------------------------------------------------ *)

let r1 () =
  let module R = Pte_tracheotomy.Robustness in
  let occurrences, horizon, trials, budget =
    if !smoke then (1, 300.0, 4, 20) else (2, 600.0, 10, 60)
  in
  (* coverage: one scripted drop per protocol root x occurrence, perfect
     channel otherwise, with- and without-lease side by side *)
  let cov = R.coverage ~occurrences ~horizon () in
  let table =
    Table.create
      ~title:
        (Fmt.str
           "R1: message-drop coverage matrix (every root x occurrence 0..%d, \
            %g s trials)"
           (occurrences - 1) horizon)
      ~header:
        [ "root"; "link"; "occ"; "fired"; "viol (lease)"; "viol (none)" ]
      ~aligns:
        [ Table.Left; Table.Left; Table.Right; Table.Left; Table.Right;
          Table.Right ]
      ()
  in
  List.iter
    (fun (row : R.coverage_row) ->
      let m = row.R.target.R.message in
      Table.add_row table
        [ m.Pte_faults.Fuzz.root;
          Fmt.str "%s %slink" m.Pte_faults.Fuzz.site.Pte_faults.Plan.entity
            (match m.Pte_faults.Fuzz.site.Pte_faults.Plan.direction with
            | Pte_faults.Plan.Up -> "up"
            | Pte_faults.Plan.Down -> "down");
          Table.fmt_int row.R.target.R.occurrence;
          Table.fmt_bool row.R.fired;
          Table.fmt_int row.R.with_lease.Pte_tracheotomy.Trial.failures;
          Table.fmt_int row.R.without_lease.Pte_tracheotomy.Trial.failures ])
    cov.R.rows;
  Table.add_note table
    (Fmt.str "roots targeted: %d/%d; exercised (drop fired >= once): %d/%d"
       cov.R.roots_targeted cov.R.roots_total cov.R.roots_exercised
       cov.R.roots_total);
  Table.add_note table
    (Fmt.str
       "with-lease violations: %d (Theorem 1 covers message loss; must be 0); \
        without-lease violations: %d (expected > 0)"
       cov.R.with_lease_violations cov.R.without_lease_violations);
  Table.add_note table
    "unexercised roots (lease_deny, aborts, cancels) need a contended or \
     failing run to occur at all; on a perfect channel they are targeted but \
     never sent";
  Table.print table;
  (* fuzz beyond the paper's fault model (crash, drift, corruption storms)
     and shrink every violating plan to a minimal replayable artifact *)
  let report = R.fuzz ~horizon ~max_oracle_calls:budget ~seed:99 ~trials () in
  let fuzz_table =
    Table.create
      ~title:
        (Fmt.str
           "R1b: fuzz + greedy shrink, %d random plans vs the with-lease \
            system" trials)
      ~header:[ "artifact"; "minimal plan"; "failures"; "trial seed" ]
      ~aligns:[ Table.Right; Table.Left; Table.Right; Table.Right ] ()
  in
  let one_line s =
    String.concat "; "
      (List.filter (fun l -> l <> "") (String.split_on_char '\n' s))
  in
  List.iteri
    (fun i (a : R.artifact) ->
      Table.add_row fuzz_table
        [ Table.fmt_int i;
          one_line (Fmt.str "%a" Pte_faults.Plan.pp a.R.plan);
          Table.fmt_int a.R.failures;
          Table.fmt_int a.R.trial_seed ])
    report.R.artifacts;
  Table.add_note fuzz_table
    (Fmt.str "%d/%d plans violating; shrinker spent %d oracle replays"
       report.R.violating report.R.trials report.R.oracle_calls);
  Table.add_note fuzz_table
    "crash/drift faults sit outside Theorem 1's loss-only fault model, so \
     with-lease violations here are expected — each artifact replays \
     deterministically from its plan + seed alone";
  Table.print fuzz_table;
  (* the same coverage targets rerun over the reliable transport: every
     scripted drop hits one link frame, so the retransmission budget is
     expected to carry every message through end-to-end *)
  let rcov =
    R.coverage ~occurrences ~horizon
      ~transport:(`Reliable Pte_net.Transport.default_config) ()
  in
  let recovery =
    Table.create
      ~title:"R1c: coverage rerun over the reliable transport"
      ~header:[ "transport"; "viol (lease)"; "viol (none)"; "exercised" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ] ()
  in
  List.iter
    (fun (label, (c : R.coverage)) ->
      Table.add_row recovery
        [ label;
          Table.fmt_int c.R.with_lease_violations;
          Table.fmt_int c.R.without_lease_violations;
          Fmt.str "%d/%d" c.R.roots_exercised c.R.roots_total ])
    [ ("bare", cov); ("reliable", rcov) ];
  Table.add_note recovery
    "reliable must keep the with-lease column at 0; a single scripted drop \
     is recovered by retransmission, so even the without-lease baseline \
     rides through";
  Table.print recovery;
  let module J = Pte_util.Json in
  let coverage_metrics label (c : R.coverage) =
    [ J.Obj
        [ ("name", J.Str "with_lease_violations"); ("transport", J.Str label);
          ("mean", J.Num (Float.of_int c.R.with_lease_violations));
          ("ci95", J.Num 0.0);
          ("n", J.Num (Float.of_int (List.length c.R.rows))) ];
      J.Obj
        [ ("name", J.Str "without_lease_violations");
          ("transport", J.Str label);
          ("mean", J.Num (Float.of_int c.R.without_lease_violations));
          ("ci95", J.Num 0.0);
          ("n", J.Num (Float.of_int (List.length c.R.rows))) ];
      J.Obj
        [ ("name", J.Str "roots_exercised"); ("transport", J.Str label);
          ("mean", J.Num (Float.of_int c.R.roots_exercised));
          ("ci95", J.Num 0.0);
          ("n", J.Num (Float.of_int c.R.roots_total)) ] ]
  in
  write_bench_json ~bench:"R1" ~seed:7100
    ~params:
      [ ("occurrences", J.Num (Float.of_int occurrences));
        ("horizon", J.Num horizon);
        ("fuzz_trials", J.Num (Float.of_int trials));
        ("fuzz_seed", J.Num 99.0) ]
    ~metrics:
      (coverage_metrics "bare" cov
      @ coverage_metrics "reliable" rcov
      @ [ J.Obj
            [ ("name", J.Str "fuzz_violating");
              ("mean", J.Num (Float.of_int report.R.violating));
              ("ci95", J.Num 0.0);
              ("n", J.Num (Float.of_int report.R.trials)) ] ])

(* ------------------------------------------------------------------ *)
(* C1: rare-event certification — SPRT screen + importance splitting   *)
(* ------------------------------------------------------------------ *)

let c1 () =
  let module C = Pte_tracheotomy.Certify in
  let module Seq = Pte_rare.Seq in
  let module Split = Pte_rare.Split in
  let config = if !smoke then C.smoke else C.default in
  let report = C.run ~config () in
  let table =
    Table.create
      ~title:
        (Fmt.str
           "C1: rare-event certification at target %.0e, confidence %g \
            (%.0f-min trials, %d particles x %d stages)"
           config.C.target config.C.confidence
           (config.C.horizon /. 60.0)
           config.C.split.Split.particles config.C.split.Split.max_stages)
      ~header:
        [ "design"; "screen"; "stages"; "bound"; "effective trials";
          "trials run"; "verdict" ]
      ~aligns:
        [ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Left ]
      ()
  in
  List.iter
    (fun (cell : C.cell) ->
      let screen =
        match cell.C.screen with
        | None -> "skipped"
        | Some s ->
            Fmt.str "%a (%d/%d)" Seq.pp_verdict s.Seq.verdict s.Seq.hits
              s.Seq.trials
      in
      let stages =
        match cell.C.split with
        | None -> "-"
        | Some s -> Table.fmt_int (List.length s.Split.stages)
      in
      Table.add_row table
        [ cell.C.design.C.label; screen; stages;
          Fmt.str "%.3g" cell.C.bound;
          Fmt.str "%.3g" cell.C.effective_trials;
          Table.fmt_int cell.C.trials_run;
          (if cell.C.certified then "CERTIFIED" else "not certified") ])
    report.C.cells;
  Table.add_note table
    "with-lease must certify the bound (splitting over fault-plan severity \
     finds no violating path);";
  Table.add_note table
    "without-lease must fail at the SPRT screen — the same budget refutes \
     the baseline.";
  Table.print table;
  let module J = Pte_util.Json in
  let cell_metrics (cell : C.cell) =
    let label = cell.C.design.C.label in
    let screen_trials =
      match cell.C.screen with None -> 0 | Some s -> s.Seq.trials
    in
    [ J.Obj
        [ ("name", J.Str (label ^ "_bound"));
          ("mean", J.Num cell.C.bound); ("ci95", J.Num 0.0);
          ("n", J.Num (Float.of_int cell.C.trials_run)) ];
      J.Obj
        [ ("name", J.Str (label ^ "_effective_trials"));
          ("mean", J.Num cell.C.effective_trials); ("ci95", J.Num 0.0);
          ("n", J.Num (Float.of_int cell.C.trials_run)) ];
      J.Obj
        [ ("name", J.Str (label ^ "_certified"));
          ("mean", J.Num (if cell.C.certified then 1.0 else 0.0));
          ("ci95", J.Num 0.0);
          ("n", J.Num (Float.of_int screen_trials)) ] ]
  in
  write_bench_json ~bench:"C1" ~seed:config.C.seed
    ~params:
      [ ("target", J.Num config.C.target);
        ("confidence", J.Num config.C.confidence);
        ("min_effective", J.Num config.C.min_effective);
        ("horizon", J.Num config.C.horizon);
        ("particles", J.Num (Float.of_int config.C.split.Split.particles));
        ("max_stages", J.Num (Float.of_int config.C.split.Split.max_stages)) ]
    ~metrics:(List.concat_map cell_metrics report.C.cells);
  (* hard gates — `dune build @bench-smoke` fails CI on any of these *)
  let cell label =
    List.find (fun (c : C.cell) -> c.C.design.C.label = label) report.C.cells
  in
  let with_lease = cell "with-lease" and without = cell "without-lease" in
  if not with_lease.C.certified then
    Fmt.failwith
      "C1: with-lease failed to certify %.0e (bound %.3g, %.3g effective \
       trials)"
      config.C.target with_lease.C.bound with_lease.C.effective_trials;
  (match with_lease.C.split with
  | Some s when s.Split.hits > 0 ->
      Fmt.failwith
        "C1: splitting found %d with-lease violation(s) — Theorem 1 broken \
         under the drop/loss fault model"
        s.Split.hits
  | _ -> ());
  (match without.C.screen with
  | Some { Seq.verdict = Seq.Refuted; _ } -> ()
  | _ ->
      Fmt.failwith
        "C1: without-lease baseline was not refuted at the screen (expected \
         its violation rate to reject the bound within a few trials)");
  if without.C.certified then
    Fmt.failwith "C1: without-lease baseline certified — gate logic broken"

(* ------------------------------------------------------------------ *)
(* P1: Bechamel performance microbenches                               *)
(* ------------------------------------------------------------------ *)

let p1 () =
  let open Bechamel in
  let vent_system () =
    Pte_hybrid.System.make ~name:"bench"
      [ Pte_tracheotomy.Ventilator.stand_alone ]
  in
  let trace_for_monitor =
    (* a cached 300 s trial trace for the monitor bench *)
    lazy
      (let built =
         Pte_tracheotomy.Emulation.build
           { Pte_tracheotomy.Emulation.default with horizon = 300.0; seed = 77 }
       in
       let trace = Pte_tracheotomy.Emulation.run built in
       (trace, built))
  in
  let tests =
    [
      Test.make ~name:"rng.exponential.x100"
        (Staged.stage (fun () ->
             let rng = Rng.create 1 in
             for _ = 1 to 100 do
               ignore (Rng.exponential rng ~mean:18.0)
             done));
      Test.make ~name:"crc16.64B"
        (Staged.stage (fun () ->
             ignore (Pte_net.Crc.of_string (String.make 64 'x'))));
      Test.make ~name:"executor.1s-ventilator"
        (Staged.stage (fun () ->
             let exec = Pte_hybrid.Executor.create (vent_system ()) in
             Pte_hybrid.Executor.run exec ~until:1.0));
      Test.make ~name:"pattern.build-N2"
        (Staged.stage (fun () -> ignore (Pte_core.Pattern.system params)));
      Test.make ~name:"constraints.check"
        (Staged.stage (fun () -> ignore (Pte_core.Constraints.check params)));
      Test.make ~name:"monitor.analyze-300s-trace"
        (Staged.stage (fun () ->
             let trace, built = Lazy.force trace_for_monitor in
             ignore
               (Pte_core.Monitor.analyze_system trace
                  built.Pte_tracheotomy.Emulation.system
                  built.Pte_tracheotomy.Emulation.spec ~horizon:300.0)));
      Test.make ~name:"dbm.canonicalize-14clk"
        (Staged.stage (fun () ->
             let z = Pte_mc.Dbm.top ~clocks:13 in
             ignore
               (Pte_mc.Dbm.constrain_atom z ~clock:1 ~cmp:Pte_mc.Dbm.Le
                  ~const:5.0);
             Pte_mc.Dbm.canonicalize z));
      Test.make ~name:"trial.30s-with-lease"
        (Staged.stage (fun () ->
             ignore
               (Pte_tracheotomy.Trial.run
                  { Pte_tracheotomy.Emulation.default with horizon = 30.0;
                    seed = 3 })));
    ]
  in
  ignore (Lazy.force trace_for_monitor);
  let grouped = Test.make_grouped ~name:"pte" tests in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let table =
    Table.create
      ~title:"P1: performance microbenches (Bechamel, monotonic clock)"
      ~header:[ "benchmark"; "time per run"; "r^2" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right ] ()
  in
  let rows = ref [] in
  Hashtbl.iter (fun name result -> rows := (name, result) :: !rows) results;
  List.iter
    (fun (name, result) ->
      let estimate =
        match Analyze.OLS.estimates result with
        | Some (est :: _) ->
            if est > 1e9 then Fmt.str "%.2f s" (est /. 1e9)
            else if est > 1e6 then Fmt.str "%.2f ms" (est /. 1e6)
            else if est > 1e3 then Fmt.str "%.2f us" (est /. 1e3)
            else Fmt.str "%.0f ns" est
        | _ -> "-"
      in
      let r2 =
        match Analyze.OLS.r_square result with
        | Some r -> Fmt.str "%.3f" r
        | None -> "-"
      in
      Table.add_row table [ name; estimate; r2 ])
    (List.sort compare !rows);
  Table.print table

(* ------------------------------------------------------------------ *)
(* P2: campaign engine throughput scaling with worker domains          *)
(* ------------------------------------------------------------------ *)

let p2 () =
  (* X1-style workload: lease on/off x two loss rates, replicated — big
     enough to keep several domains busy, small enough to finish fast *)
  let cells =
    Array.of_list
      (List.concat_map
         (fun loss ->
           List.map
             (fun lease ->
               {
                 Pte_tracheotomy.Emulation.default with
                 lease;
                 horizon = 300.0;
                 seed = 900 + (if lease then 0 else 1);
                 loss = Pte_net.Loss.wifi_interference ~average_loss:loss;
               })
             [ true; false ])
         [ 0.25; 0.5 ])
  in
  let reps = 6 in
  let jobs = Array.length cells * reps in
  let table =
    Table.create
      ~title:
        (Fmt.str
           "P2: campaign throughput scaling (%d jobs of 300 sim-s, X1-style)"
           jobs)
      ~header:[ "workers"; "wall s"; "trials/s"; "speedup"; "aggregate" ]
      ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right; Table.Left ]
      ()
  in
  let fingerprint (campaign : _ Pte_campaign.Runner.result) =
    (* cheap digest of every per-cell mean, to show runs are identical *)
    Array.fold_left
      (fun acc (cell : Pte_campaign.Aggregate.cell) ->
        List.fold_left
          (fun acc (_, (s : Pte_campaign.Aggregate.summary)) ->
            acc +. s.Pte_campaign.Aggregate.mean)
          acc cell.Pte_campaign.Aggregate.metrics)
      0.0 campaign.Pte_campaign.Runner.cells
  in
  let serial_wall = ref None in
  List.iter
    (fun workers ->
      let t0 = Unix.gettimeofday () in
      let campaign, _ =
        Pte_tracheotomy.Trial.run_cells ~workers ~reps ~seed:900 cells
      in
      let wall = Unix.gettimeofday () -. t0 in
      if !serial_wall = None then serial_wall := Some wall;
      let base = Option.get !serial_wall in
      Table.add_row table
        [ Table.fmt_int workers;
          Table.fmt_float ~decimals:2 wall;
          Table.fmt_float ~decimals:1 (Float.of_int jobs /. wall);
          Fmt.str "%.2fx" (base /. wall);
          Fmt.str "digest %.6g" (fingerprint campaign) ])
    [ 1; 2; 4 ];
  Table.add_note table
    (Fmt.str
       "identical digests = identical aggregates at every worker count; \
        speedup is bounded by the available cores (this host: %d)"
       (Pte_campaign.Pool.default_workers ()));
  Table.print table

(* ------------------------------------------------------------------ *)
(* S1: step-loop throughput at scale (heap queue vs legacy list)       *)
(* ------------------------------------------------------------------ *)

(* Timer-storm cell: [timers] concurrent self-rescheduling timers with
   cancel churn, on a minimal pattern system so the event queue — not
   the Euler advance — is what's being measured. This is the access
   pattern of the transports at scale: ARQ retransmission timers,
   scheduled blind copies and adaptive drains all park revocable timers
   on the shared timeline, and the legacy sorted list pays O(queue) per
   insert and per cancel where the heap pays O(log) / O(1). *)
let s1_storm ~queue ~timers ~horizon ~seed =
  let module E = Pte_hybrid.Executor in
  let system, _ = Pte_core.Scale.system ~n:2 () in
  (* the host system is tiny (3 automata) so the default per-instant
     chain budget (max_chain * automata) is far below a burst of
     [timers] distinct timers landing in one dt window; the storm is
     not Zeno — every firing is a separate due time — so widen the
     budget to cover the worst aligned burst *)
  let config =
    { E.default_config with max_chain = Stdlib.max 64 (4 * timers) }
  in
  let ex = E.create ~config ~queue system in
  let rng = Rng.create seed in
  let decoys = Array.make timers None in
  (* each firing re-arms itself, cancels the previous long-dated decoy
     and parks a new one: steady state is ~2*[timers] live entries plus
     churn, with inserts landing at both ends of the timeline *)
  let rec arm i period =
    ignore
      (E.schedule ex ~owner:"storm" ~at:(E.time ex +. period) (fun ex ->
           (match decoys.(i) with Some d -> E.cancel ex d | None -> ());
           decoys.(i) <-
             Some (E.schedule ex ~at:(E.time ex +. 3600.0) (fun _ -> ()));
           arm i period))
  in
  for i = 0 to timers - 1 do
    arm i (Rng.uniform rng ~lo:0.002 ~hi:0.05)
  done;
  let t0 = Unix.gettimeofday () in
  E.run ex ~until:horizon;
  let wall = Unix.gettimeofday () -. t0 in
  let events = E.events_processed ex in
  (events, wall, Float.of_int events /. wall)

(* Full-emulation cell: the N-order pattern of Pte_core.Scale under the
   wireless star, driven by stimuli on the Initializer — requests from
   Fall-Back, cancels mid-cascade (Requesting) and mid-emission (Risky
   Core) — so grant/cancel sweeps keep flowing through all N+1 automata.
   Returns (events, wall, awake visits per sweep); Zeno or Time_block
   would propagate and fail the bench, which is the gate. *)
let s1_emulation ~n ~horizon ~dt ~seed =
  let system, p = Pte_core.Scale.system ~n () in
  let net =
    Pte_net.Star.create ~base:p.Pte_core.Params.supervisor
      ~remotes:(Pte_core.Pattern.remotes p) ~loss_kind:Pte_net.Loss.Perfect
      ~rng:(Rng.create ((seed * 2) + 1))
      ()
  in
  let engine =
    Pte_sim.Engine.create
      ~config:{ Pte_hybrid.Executor.default_config with dt }
      ~net ~transport:`Bare ~seed system
  in
  let init = Pte_core.Scale.initializer_name in
  let request = Pte_core.Events.stim_request ~initializer_:init in
  let cancel = Pte_core.Events.stim_cancel ~initializer_:init in
  Pte_sim.Scenario.exponential_stimulus engine ~mean:30.0 ~immediately:true
    ~automaton:init ~armed_in:"Fall-Back" ~root:request ();
  Pte_sim.Scenario.exponential_stimulus engine ~mean:10.0 ~automaton:init
    ~armed_in:"Requesting" ~root:cancel ();
  Pte_sim.Scenario.exponential_stimulus engine ~mean:8.0 ~automaton:init
    ~armed_in:"Risky Core" ~root:cancel ();
  let t0 = Unix.gettimeofday () in
  Pte_sim.Engine.run engine ~until:horizon;
  let wall = Unix.gettimeofday () -. t0 in
  let exec = Pte_sim.Engine.executor engine in
  let stats = Pte_hybrid.Executor.stats exec in
  let visits =
    Float.of_int stats.Pte_hybrid.Executor.awake_visits
    /. Float.of_int stats.Pte_hybrid.Executor.sweeps
  in
  (Pte_hybrid.Executor.events_processed exec, wall, visits)

let s1_scale () =
  let module J = Pte_util.Json in
  let seed = 2024 in
  let sizes, storm_horizon, emu_horizon =
    if !smoke then ([ 4; 64 ], 0.5, 60.0) else ([ 4; 64; 256; 1024 ], 2.0, 1800.0)
  in
  (* N = 10^4 only for the emulation: the legacy list of S1a is quadratic *)
  let emu_sizes = if !smoke then sizes else sizes @ [ 10_000 ] in
  let n_max = List.fold_left max 0 sizes in
  (* --- timer-storm microbench: heap vs legacy list --- *)
  let storm =
    Table.create
      ~title:
        (Fmt.str
           "S1a: event-queue throughput, %g simulated s of N concurrent \
            self-rescheduling timers with cancel churn"
           storm_horizon)
      ~header:
        [ "N timers"; "events"; "list ev/s"; "heap ev/s"; "heap/list" ]
      ~aligns:
        [ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
      ()
  in
  let storm_cells =
    List.map
      (fun n ->
        let ev_l, _, rate_l =
          s1_storm ~queue:`Legacy_list ~timers:n ~horizon:storm_horizon ~seed
        in
        let ev_h, _, rate_h =
          s1_storm ~queue:`Heap ~timers:n ~horizon:storm_horizon ~seed
        in
        if ev_l <> ev_h then
          Fmt.failwith "S1: queue kinds disagree on work done (%d vs %d)" ev_l
            ev_h;
        let ratio = rate_h /. rate_l in
        Table.add_row storm
          [ Table.fmt_int n; Table.fmt_int ev_h;
            Table.fmt_float ~decimals:0 rate_l;
            Table.fmt_float ~decimals:0 rate_h; Fmt.str "%.1fx" ratio ];
        (n, ev_h, rate_l, rate_h, ratio))
      sizes
  in
  Table.add_note storm
    "both queue kinds fire exactly the same timers; the ratio is pure \
     queue-discipline speedup";
  Table.print storm;
  (* --- full pattern emulation: N+1 automata to completion --- *)
  let emu =
    Table.create
      ~title:
        (Fmt.str
           "S1b: full pattern emulation, N+1 automata for %g simulated s \
            (bare transport, perfect channel)"
           emu_horizon)
      ~header:
        [ "N"; "dt s"; "events"; "wall s"; "sim-s/wall-s"; "ev/s"; "visits/sweep" ]
      ~aligns:
        [ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right ]
      ()
  in
  let emu_cells =
    List.map
      (fun n ->
        let dt = 0.01 in
        let events, wall, visits = s1_emulation ~n ~horizon:emu_horizon ~dt ~seed in
        Table.add_row emu
          [ Table.fmt_int n; Table.fmt_float ~decimals:2 dt;
            Table.fmt_int events; Table.fmt_float ~decimals:1 wall;
            Table.fmt_float ~decimals:0 (emu_horizon /. wall);
            Table.fmt_float ~decimals:1 (Float.of_int events /. wall);
            Table.fmt_float ~decimals:4 visits ];
        (n, dt, events, wall, visits))
      emu_sizes
  in
  Table.add_note emu
    "a cell that wedged (Zeno, time-block, non-finite timer) would have \
     aborted the run; completion is the gate";
  Table.add_note emu
    "visits/sweep: automata the continuous sweep advanced, per step; the \
     others slept until their next guard or invariant flip";
  Table.print emu;
  (* hard gate, smoke runs too: a count, so it holds on a loaded single
     core. The N = 64 chain sleeps between flips; with every automaton
     that has an eager guard or an invariant swept, it read 38.4. *)
  (match List.find_opt (fun (n, _, _, _, _) -> n = 64) emu_cells with
  | Some (_, _, _, _, visits) when visits >= 1.0 ->
      Fmt.failwith "S1: %.2f awake visits per sweep at N=64, must stay below 1"
        visits
  | Some _ | None -> ());
  (* hard gates, full runs only: the heap must beat the list by >= 10x
     at the largest N, and that N must be >= 1024 *)
  if not !smoke then begin
    let _, _, _, _, ratio =
      List.find (fun (n, _, _, _, _) -> n = n_max) storm_cells
    in
    if n_max < 1024 then
      Fmt.failwith "S1: full run must reach N=1024 (got %d)" n_max;
    if ratio < 10.0 then
      Fmt.failwith "S1: heap/list throughput ratio %.1fx < 10x at N=%d" ratio
        n_max
  end;
  write_bench_json ~bench:"S1" ~seed
    ~params:
      [ ("sizes", J.Arr (List.map (fun n -> J.Num (Float.of_int n)) sizes));
        ("emu_sizes", J.Arr (List.map (fun n -> J.Num (Float.of_int n)) emu_sizes));
        ("storm_horizon", J.Num storm_horizon);
        ("emu_horizon", J.Num emu_horizon);
        ("smoke", J.Num (if !smoke then 1.0 else 0.0)) ]
    ~metrics:
      (List.map
         (fun (n, events, rate_l, rate_h, ratio) ->
           J.Obj
             [ ("name", J.Str (Fmt.str "storm_n%04d" n));
               ("events", J.Num (Float.of_int events));
               ("list_events_per_s", J.Num rate_l);
               ("heap_events_per_s", J.Num rate_h);
               ("heap_over_list", J.Num ratio) ])
         storm_cells
      @ List.map
          (fun (n, dt, events, wall, visits) ->
            J.Obj
              [ ("name", J.Str (Fmt.str "emu_n%04d" n)); ("dt", J.Num dt);
                ("events", J.Num (Float.of_int events));
                ("wall_s", J.Num wall);
                ("sim_per_wall", J.Num (emu_horizon /. wall));
                ("events_per_s", J.Num (Float.of_int events /. wall));
                ("visits_per_sweep", J.Num visits) ])
          emu_cells)

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("T1", t1); ("F1", f1); ("F2", f2); ("F3", f3); ("F6", f6); ("SV1", sv1);
    ("SV2", sv2); ("SV3", sv3); ("V1", v1); ("V2", v2); ("X1", x1); ("X2", x2);
    ("X3", x3); ("A1", a1); ("A2", a2); ("A3", a3); ("R1", r1); ("C1", c1);
    ("P1", p1); ("P2", p2); ("S1", s1_scale);
  ]

let () =
  let args =
    List.filter
      (fun a ->
        if String.equal a "--smoke" then (
          smoke := true;
          false)
        else true)
      (List.tl (Array.to_list Sys.argv))
  in
  let requested =
    match args with
    | _ :: _ as ids -> List.map String.uppercase_ascii ids
    | [] -> List.map fst experiments
  in
  let t0 = Unix.gettimeofday () in
  Fmt.pr "PTE-Lease benchmark harness — reproducing the paper's evaluation@.";
  Fmt.pr "configuration: %a@.@." Pte_core.Params.pp params;
  List.iter
    (fun id ->
      match List.assoc_opt id experiments with
      | Some f ->
          let t = Unix.gettimeofday () in
          f ();
          Fmt.pr "[%s done in %.1fs]@.@." id (Unix.gettimeofday () -. t)
      | None ->
          Fmt.epr "unknown experiment id %S (known: %s)@." id
            (String.concat " " (List.map fst experiments)))
    requested;
  Fmt.pr "total: %.1fs@." (Unix.gettimeofday () -. t0)
