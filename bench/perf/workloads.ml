(** The five workloads. Each one builds its inputs from the seed alone,
    runs a fixed amount of work (a {e round}), checks the results and
    returns a digest of everything it simulated. The same round runs
    untraced (what a user runs) or traced (spans around every layer
    call); both must give the same digest. *)

module E = Pte_tracheotomy.Emulation
module Ex = Pte_hybrid.Executor

type size = Full | Smoke

(** What one round did. [ops] are trials, emulation runs or model
    checks; an op fails if it raised or broke one of the workload's
    checks. [work / wall_s] is the workload's throughput. *)
type outcome = {
  ops : int;
  failed : int;
  problems : string list;  (** one line per failed check *)
  work : float;
  wall_s : float;  (** host time of the measured part of the round *)
  digest : string;
  counts : (string * float) list;
      (** exact simulated counts and structure sizes, for the per-layer
          report *)
  minor_words : float;  (** allocated by the step loop or event run *)
}

type t = {
  name : string;
  work_unit : string;
  setup : size -> seed:int -> unit;
      (** one construction: everything before the first step or state *)
  round : size -> seed:int -> Span.t -> outcome;
}

let pinned_seed = 2013

(* chain1024 and timer_storm are bench S1's cells. Their seed is offset so
   that the default seed gives S1's seed 2024, whose counts are the
   baseline: 400 and 1 914 783 events. *)
let s1_seed seed = seed + 11

let wall f =
  let t0 = Span.now () in
  let v = f () in
  (v, Float.of_int (Span.now () - t0) *. 1e-9)

let system_size (system : Pte_hybrid.System.t) =
  let automata = system.Pte_hybrid.System.automata in
  let sum f = Float.of_int (List.fold_left (fun acc a -> acc + List.length (f a)) 0 automata) in
  [ ("automata", Float.of_int (List.length automata));
    ("locations", sum (fun a -> a.Pte_hybrid.Automaton.locations));
    ("edges", sum (fun a -> a.Pte_hybrid.Automaton.edges)) ]

(* Drive [engine] to [horizon]. Untraced, this is the single
   [Engine.run] a user makes. Traced, the same steps are taken one
   [Engine.run] call per step so each gets a span: Engine.run runs the
   due processes, steps, and runs them again, and a process never fires
   twice at one instant, so the split run is the same run. *)
let run_engine tr engine ~dt ~horizon =
  if not (Span.enabled tr) then Pte_sim.Engine.run engine ~until:horizon
  else
    Span.with_span tr "pte_sim.run" (fun () ->
        let step = Span.agg tr ~parent:"pte_sim.run" "pte_sim.step" in
        let route = Span.agg tr ~parent:"pte_sim.step" "pte_net.route" in
        let exec = Pte_sim.Engine.executor engine in
        (match Pte_sim.Engine.transport engine with
        | Some transport ->
            let inner = Pte_net.Transport.router transport in
            Ex.set_router exec (fun ~time ~sender ~root ~receiver ->
                let t0 = Span.now () in
                let d = inner ~time ~sender ~root ~receiver in
                Span.record route (Span.now () - t0);
                d)
        | None -> ());
        while Pte_sim.Engine.time engine < horizon -. 1e-12 do
          let t0 = Span.now () in
          Pte_sim.Engine.run engine ~until:(Pte_sim.Engine.time engine +. dt);
          Span.record step (Span.now () - t0)
        done)

let minor_words_during f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* Host seconds and minor words of [f ()], or what it raised. *)
let measure f =
  match wall (fun () -> minor_words_during f) with
  | words, wall_s -> Ok (wall_s, words)
  | exception e -> Error (Printexc.to_string e)

(* The outcome of a round that is a single emulation run. *)
let single_run ~work ~counts ~problems result =
  let wall_s, minor_words = Result.value result ~default:(Float.nan, 0.0) in
  let problems = (match result with Error e -> [ "run raised " ^ e ] | Ok _ -> []) @ problems in
  {
    ops = 1;
    failed = (if problems = [] then 0 else 1);
    problems;
    work;
    wall_s;
    digest = Digest_rows.of_rows [ (0, counts) ];
    counts;
    minor_words;
  }

(* ------------------------------------------------------------------ *)
(* Emulation trials under the campaign pool (table1, lossy_transports) *)
(* ------------------------------------------------------------------ *)

let stat_names =
  [ "data_sends"; "delivered"; "retransmissions"; "acks_lost"; "gave_up";
    "dups_suppressed"; "switches_up"; "switches_down" ]

(* One trial: Trial.run's build / run / analyze, with a span around each
   layer call. Returns the trial's row and the words its step loop
   allocated. *)
let trial tr (config : E.config) =
  Span.with_span tr "pte_campaign.job" (fun () ->
      let built = Span.with_span tr "pte_tracheotomy.build" (fun () -> E.build config) in
      let engine = built.E.engine in
      let words =
        minor_words_during (fun () ->
            run_engine tr engine ~dt:config.E.dt ~horizon:config.E.horizon)
      in
      let trace = Pte_sim.Engine.trace engine in
      let report =
        Span.with_span tr "pte_core.monitor" (fun () ->
            Pte_core.Monitor.analyze_system trace built.E.system built.E.spec
              ~horizon:config.E.horizon)
      in
      let s = Pte_net.Transport.stats built.E.transport in
      let stats =
        [ s.data_sends; s.delivered; s.retransmissions; s.acks_lost; s.gave_up;
          s.dups_suppressed; s.switches_up; s.switches_down ]
      in
      let sched_bound =
        match Pte_net.Transport.schedule built.E.transport with
        | Some sched when (match config.E.transport with `Scheduled _ -> true | _ -> false) ->
            [ ("sched_bound", Pte_sched.Schedule.worst_case_latency sched) ]
        | _ -> []
      in
      let row =
        [ ("lease", if config.E.lease then 1.0 else 0.0);
          ( "emissions",
            Float.of_int
              (Pte_sim.Metrics.entries trace ~automaton:built.E.laser
                 ~location:Pte_core.Pattern.risky_core) );
          ("failures", Float.of_int (Pte_core.Monitor.episodes report));
          ("events", Float.of_int (Ex.events_processed (Pte_sim.Engine.executor engine)));
          ("trace_entries", Float.of_int (List.length trace));
          ("worst_latency", s.worst_latency) ]
        @ List.map2 (fun k v -> (k, Float.of_int v)) stat_names stats
        @ sched_bound
        @ system_size built.E.system
      in
      (row, words))

(* The campaign: Trial.run_cells' job function (replicate 0 keeps the
   cell's seed), with one tracer per job in a job-indexed slot. *)
let campaign tr ~workers ~reps ~seed cells =
  let n = Array.length cells * reps in
  let rows = Array.make n None in
  let tracers = Array.make n None in
  let result, wall_s =
    wall (fun () ->
        Span.with_span tr "pte_campaign.run" (fun () ->
            Pte_campaign.Runner.run
              ~config:{ Pte_campaign.Runner.default with workers = Some workers }
              ~cells ~reps ~seed
              (fun job rng ->
                let base = job.Pte_campaign.Job.payload in
                let trial_seed =
                  if job.Pte_campaign.Job.rep = 0 then base.E.seed
                  else Int64.to_int (Pte_util.Rng.next_int64 rng)
                in
                let jt =
                  Span.create ~tid:(Domain.self () :> int) ~parent:"pte_campaign.run"
                    (Span.enabled tr)
                in
                let row, words = trial jt { base with E.seed = trial_seed } in
                let id = job.Pte_campaign.Job.id in
                tracers.(id) <- Some jt;
                rows.(id) <- Some (row, words);
                row)))
  in
  Span.adopt tr (List.filter_map Fun.id (Array.to_list tracers));
  (result, rows, wall_s)

let get row k = List.assoc k row

let trial_outcome ~workers ~checks (result : _ Pte_campaign.Runner.result) rows wall_s =
  let outcomes = Array.to_list result.Pte_campaign.Runner.outcomes in
  let ok_rows =
    List.filter_map
      (fun (o : Pte_campaign.Job.outcome) ->
        match (o.status, rows.(o.id)) with
        | Pte_campaign.Job.Done, Some (row, words) -> Some (o, row, words)
        | _ -> None)
      outcomes
  in
  let per_op =
    List.map
      (fun (o : Pte_campaign.Job.outcome) ->
        match (o.status, rows.(o.id)) with
        | Pte_campaign.Job.Failed e, _ -> [ Printf.sprintf "job %d raised: %s" o.id e ]
        | Pte_campaign.Job.Done, Some (row, _) -> List.filter_map (fun c -> c o row) checks
        | Pte_campaign.Job.Done, None -> [ Printf.sprintf "job %d left no row" o.id ])
      outcomes
  in
  let sum k = List.fold_left (fun acc (_, row, _) -> acc +. get row k) 0.0 ok_rows in
  let counts =
    [ ("sessions", sum "emissions"); ("workers", Float.of_int workers) ]
    @ List.map (fun k -> (k, sum k)) ([ "events"; "trace_entries" ] @ stat_names)
    @ (match ok_rows with
      | (_, row, _) :: _ ->
          List.map (fun k -> (k, get row k)) [ "automata"; "locations"; "edges" ]
      | [] -> [])
  in
  {
    ops = List.length outcomes;
    failed = List.length (List.filter (( <> ) []) per_op);
    problems = List.concat per_op;
    work = Float.of_int (List.length outcomes);
    wall_s;
    digest = Digest_rows.of_rows (List.map (fun (o, row, _) -> (o.Pte_campaign.Job.id, row)) ok_rows);
    counts;
    minor_words = List.fold_left (fun acc (_, _, w) -> acc +. w) 0.0 ok_rows;
  }

let lease_holds (o : Pte_campaign.Job.outcome) row =
  if get row "lease" = 1.0 && get row "failures" > 0.0 then
    Some (Printf.sprintf "job %d: with-lease trial has %g failures" o.id (get row "failures"))
  else None

(* What users of the reproduction run: the campaign pool, the N = 2 step
   loop with ODE flows and the monitor, while the bare radio does almost
   nothing. *)
let table1 =
  let cells ~seed = Array.map (fun (_, _, c) -> c) (Pte_tracheotomy.Trial.table1_cells ~seed) in
  let reps = function Full -> 24 | Smoke -> 1 in
  {
    name = "table1";
    work_unit = "trials";
    setup = (fun _ ~seed -> Array.iter (fun c -> ignore (E.build c)) (cells ~seed));
    round =
      (fun size ~seed tr ->
        let result, rows, wall_s =
          campaign tr ~workers:2 ~reps:(reps size) ~seed (cells ~seed)
        in
        let pinned (o : Pte_campaign.Job.outcome) row =
          let expected = [| 15.0; 11.0; 12.0; 13.0 |].(o.cell) in
          if seed = pinned_seed && o.rep = 0 && get row "emissions" <> expected then
            Some
              (Printf.sprintf "cell %d rep 0: %g emissions, pinned %g" o.cell
                 (get row "emissions") expected)
          else None
        in
        trial_outcome ~workers:2 ~checks:[ lease_holds; pinned ] result rows wall_s);
  }

(* The same step loop as table1 with about three times the events per
   trial (ACK and retransmission timers, blind copies, mode switches), run
   serially: the transports do their most work here and the pool none. *)
let lossy_transports =
  let cells ~seed =
    Array.map
      (fun transport ->
        { E.default with
          E.lease = true;
          loss = Pte_net.Loss.wifi_interference ~average_loss:0.6;
          transport;
          seed })
      [| `Reliable Pte_net.Transport.default_config;
         `Scheduled Pte_sched.Synth.default_policy;
         `Adaptive Pte_net.Transport.default_adaptive |]
  in
  let reps = function Full -> 16 | Smoke -> 1 in
  {
    name = "lossy_transports";
    work_unit = "trials";
    setup = (fun _ ~seed -> Array.iter (fun c -> ignore (E.build c)) (cells ~seed));
    round =
      (fun size ~seed tr ->
        let result, rows, wall_s =
          campaign tr ~workers:1 ~reps:(reps size) ~seed (cells ~seed)
        in
        let within_bound (o : Pte_campaign.Job.outcome) row =
          match List.assoc_opt "sched_bound" row with
          | Some bound when get row "worst_latency" > bound ->
              Some
                (Printf.sprintf "job %d: scheduled worst latency %g s above its bound %g s"
                   o.id (get row "worst_latency") bound)
          | _ -> None
        in
        trial_outcome ~workers:1 ~checks:[ lease_holds; within_bound ] result rows wall_s);
  }

(* ------------------------------------------------------------------ *)
(* chain1024: the step loop at N = 1024                                *)
(* ------------------------------------------------------------------ *)

let chain_build tr ~n ~dt ~seed =
  let p = Span.with_span tr "pte_core.synthesis" (fun () -> Pte_core.Scale.params_exn ~n) in
  let system = Span.with_span tr "pte_core.pattern" (fun () -> Pte_core.Pattern.system p) in
  let net =
    Pte_net.Star.create ~base:p.Pte_core.Params.supervisor
      ~remotes:(Pte_core.Pattern.remotes p) ~loss_kind:Pte_net.Loss.Perfect
      ~rng:(Pte_util.Rng.create ((seed * 2) + 1))
      ()
  in
  let engine =
    Span.with_span tr "pte_sim.create" (fun () ->
        Pte_sim.Engine.create ~config:{ Ex.default_config with dt } ~net
          ~transport:`Bare ~seed system)
  in
  let init = Pte_core.Scale.initializer_name in
  let stimulus ~mean ?immediately ~armed_in root =
    Pte_sim.Scenario.exponential_stimulus engine ~mean ?immediately ~automaton:init
      ~armed_in ~root ()
  in
  stimulus ~mean:30.0 ~immediately:true ~armed_in:Pte_core.Pattern.fall_back
    (Pte_core.Events.stim_request ~initializer_:init);
  stimulus ~mean:10.0 ~armed_in:Pte_core.Pattern.requesting
    (Pte_core.Events.stim_cancel ~initializer_:init);
  stimulus ~mean:8.0 ~armed_in:Pte_core.Pattern.risky_core
    (Pte_core.Events.stim_cancel ~initializer_:init);
  (p, system, engine)

(* 1025 automata with constant-rate clocks and 400 events in 180 000
   steps: the continuous sweep is nearly all the work, which the other
   workloads bypass. *)
let chain1024 =
  let n = function Full -> 1024 | Smoke -> 256 in
  let horizon = function Full -> 1800.0 | Smoke -> 20.0 in
  let dt = 0.01 in
  {
    name = "chain1024";
    work_unit = "simulated s";
    setup =
      (fun size ~seed ->
        ignore (chain_build (Span.create false) ~n:(n size) ~dt ~seed:(s1_seed seed)));
    round =
      (fun size ~seed tr ->
        let p, system, engine = chain_build tr ~n:(n size) ~dt ~seed:(s1_seed seed) in
        let horizon = horizon size in
        let result = measure (fun () -> run_engine tr engine ~dt ~horizon) in
        let trace = Pte_sim.Engine.trace engine in
        let report =
          Span.with_span tr "pte_core.monitor" (fun () ->
              Pte_core.Monitor.analyze_system trace system (Pte_core.Rules.of_params p)
                ~horizon)
        in
        let episodes = Pte_core.Monitor.episodes report in
        let sessions =
          Pte_sim.Metrics.entries trace ~automaton:Pte_core.Scale.initializer_name
            ~location:Pte_core.Pattern.risky_core
        in
        single_run result ~work:horizon
          ~problems:(if episodes > 0 then [ Printf.sprintf "%d monitor episodes" episodes ] else [])
          ~counts:
            ([ ("events", Float.of_int (Ex.events_processed (Pte_sim.Engine.executor engine)));
               ("trace_entries", Float.of_int (List.length trace));
               ("sessions", Float.of_int sessions);
               ("episodes", Float.of_int episodes) ]
            @ system_size system));
  }

(* ------------------------------------------------------------------ *)
(* timer_storm: the event queue alone                                  *)
(* ------------------------------------------------------------------ *)

(* [timers] self-rescheduling timers on the 3-automaton N = 2 system;
   each firing cancels its previous far-future decoy and parks a new
   one, so pops (reads) mix with cancels (writes). The periods are bench
   S1's draw; the seed only shuffles the order the timers are armed in,
   which changes every queue position but not the amount of work, so
   runs at different seeds stay comparable. Traced, every schedule/cancel
   call and every callback gets a span. *)
let storm_build tr ~timers ~seed =
  let system, _ = Pte_core.Scale.system ~n:2 () in
  let config = { Ex.default_config with max_chain = Int.max 64 (4 * timers) } in
  let ex = Ex.create ~config system in
  let periods =
    let rng = Pte_util.Rng.create (s1_seed pinned_seed) in
    Array.init timers (fun _ -> Pte_util.Rng.uniform rng ~lo:0.002 ~hi:0.05)
  in
  let order = Array.init timers Fun.id in
  let rng = Pte_util.Rng.create seed in
  for i = timers - 1 downto 1 do
    let j = Pte_util.Rng.int rng (i + 1) in
    let o = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- o
  done;
  let decoys = Array.make timers None in
  let traced = Span.enabled tr in
  let callback = Span.agg tr ~parent:"pte_hybrid.run" "storm.callback" in
  let sched_agg = Span.agg tr ~parent:"storm.callback" "pte_hybrid.schedule" in
  let cancel_agg = Span.agg tr ~parent:"storm.callback" "pte_hybrid.cancel" in
  let schedule ex ?owner ~at f =
    if not traced then Ex.schedule ex ?owner ~at f
    else begin
      let t0 = Span.now () in
      let token = Ex.schedule ex ?owner ~at f in
      Span.record sched_agg (Span.now () - t0);
      token
    end
  in
  let cancel ex token =
    if not traced then Ex.cancel ex token
    else begin
      let t0 = Span.now () in
      Ex.cancel ex token;
      Span.record cancel_agg (Span.now () - t0)
    end
  in
  let rec fire i period ex =
    (match decoys.(i) with Some d -> cancel ex d | None -> ());
    decoys.(i) <- Some (schedule ex ~at:(Ex.time ex +. 3600.0) ignore);
    arm i period
  and arm i period =
    ignore
      (schedule ex ~owner:"storm" ~at:(Ex.time ex +. period) (fun ex ->
           if not traced then fire i period ex
           else begin
             let t0 = Span.now () in
             fire i period ex;
             Span.record callback (Span.now () - t0)
           end))
  in
  Array.iter (fun i -> arm i periods.(i)) order;
  (system, ex)

(* The event queue does nearly all the work (about 1.9 million events,
   pops mixed with cancels) while the sweep is trivial. *)
let timer_storm =
  let horizon = function Full -> 30.0 | Smoke -> 1.0 in
  let timers = 1024 in
  {
    name = "timer_storm";
    work_unit = "executor events";
    setup = (fun _ ~seed -> ignore (storm_build (Span.create false) ~timers ~seed));
    round =
      (fun size ~seed tr ->
        let system, ex = storm_build tr ~timers ~seed in
        let horizon = horizon size in
        let result =
          measure (fun () -> Span.with_span tr "pte_hybrid.run" (fun () -> Ex.run ex ~until:horizon))
        in
        let events = Float.of_int (Ex.events_processed ex) in
        single_run result ~work:events ~problems:[]
          ~counts:
            ([ ("events", events); ("trace_entries", Float.of_int (List.length (Ex.trace ex))) ]
            @ system_size system));
  }

(* ------------------------------------------------------------------ *)
(* verify: the zone model checker alone                                *)
(* ------------------------------------------------------------------ *)

let verify_build tr =
  let p = Pte_core.Params.case_study in
  Span.with_span tr "pte_core.pattern" (fun () ->
      let lease = Pte_core.Pattern.system ~lease:true p in
      let nolease = Pte_core.Pattern.system ~lease:false p in
      (lease, nolease, Pte_core.Rules.of_params p))

(* Only pte_mc works here: simulator changes must not move it, and DBM
   or visited-store changes show only here. *)
let verify =
  let max_states = function Full -> 60_000 | Smoke -> 3_000 in
  {
    name = "verify";
    work_unit = "zone states";
    setup = (fun _ ~seed:_ -> ignore (verify_build (Span.create false)));
    round =
      (fun size ~seed:_ tr ->
        let lease, nolease, spec = verify_build tr in
        let check name system config =
          Span.with_span tr name (fun () ->
              wall (fun () ->
                  match Pte_mc.Reach.check ~config ~system ~spec () with
                  | r -> Ok r
                  | exception e -> Error (Printexc.to_string e)))
        in
        let bounded n = { Pte_mc.Reach.default_config with max_states = n } in
        (* traced only: the same search stopped at half the states, so the
           per-layer report can split states/s into the first and the
           second half (Reach's progress callback fires too rarely) *)
        let half =
          if not (Span.enabled tr) then []
          else
            match fst (check "pte_mc.half" lease (bounded (max_states size / 2))) with
            | Ok r -> [ ("half_states", Float.of_int r.Pte_mc.Reach.states) ]
            | Error _ -> []
        in
        let with_lease, t1 = check "pte_mc.check" lease (bounded (max_states size)) in
        let without, t2 =
          check "pte_mc.nolease" nolease
            { Pte_mc.Reach.default_config with stop_at_first = true }
        in
        let problems =
          (match with_lease with
          | Error e -> [ "with-lease check raised " ^ e ]
          | Ok r when r.Pte_mc.Reach.violations <> [] ->
              [ Printf.sprintf "with-lease check found %d violations"
                  (List.length r.Pte_mc.Reach.violations) ]
          | Ok _ -> [])
          @
          match without with
          | Error e -> [ "no-lease check raised " ^ e ]
          | Ok r when r.Pte_mc.Reach.violations = [] -> [ "no-lease check found no violation" ]
          | Ok _ -> []
        in
        let field f = function Ok r -> Float.of_int (f r) | Error _ -> 0.0 in
        let states = field (fun r -> r.Pte_mc.Reach.states) in
        let counts =
          [ ("states", states with_lease);
            ("transitions", field (fun r -> r.Pte_mc.Reach.transitions) with_lease);
            ("discrete_states", field (fun r -> r.Pte_mc.Reach.discrete_states) with_lease);
            ("max_zones_per_key", field (fun r -> r.Pte_mc.Reach.max_zones_per_key) with_lease);
            ("violations", field (fun r -> List.length r.Pte_mc.Reach.violations) with_lease);
            ("nolease_states", states without);
            ("nolease_violations", field (fun r -> List.length r.Pte_mc.Reach.violations) without) ]
        in
        {
          ops = 2;
          failed = List.length problems;
          problems;
          work = states with_lease +. states without;
          wall_s = t1 +. t2;
          digest = Digest_rows.of_rows [ (0, counts) ];
          counts = counts @ half;
          minor_words = 0.0;
        });
  }

let all = [ table1; lossy_transports; chain1024; timer_storm; verify ]
let find name = List.find_opt (fun w -> String.equal w.name name) all
