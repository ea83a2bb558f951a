(** Per-layer metrics of one traced round, with the untraced round of
    the same run as reference. Every workload reports every metric; a
    layer the workload does not exercise reads 0. *)

type input = {
  tr : Span.t;  (** the traced round's spans *)
  plain : Workloads.outcome;  (** the untraced round *)
  traced : Workloads.outcome;
  major_collections : float;  (** during the untraced round *)
  top_heap_mb : float;
}

let s ns = Float.of_int ns *. 1e-9
let ratio a b = if b = 0.0 then 0.0 else a /. b
let count i k = Option.value (List.assoc_opt k i.traced.counts) ~default:0.0
let total_s i name = s (Span.total i.tr name)
let hist i name = Span.merged i.tr name
let calls i name = Float.of_int (hist i name).Stats.Hist.n
let sum_s i name = s (hist i name).Stats.Hist.sum
let steps i = calls i "pte_sim.step"

(* routes run inside steps only, so the step's self time is the sum of
   step spans minus the sum of route spans *)
let step_self_s i = sum_s i "pte_sim.step" -. sum_s i "pte_net.route"
let jobs i = List.map s (Span.durations i.tr "pte_campaign.job")
let job_pct i p = match jobs i with [] -> 0.0 | xs -> Stats.percentile xs p

(* states/s up to and after the point where the half-bounded search
   stopped *)
let half_s i = total_s i "pte_mc.half"
let early i = ratio (count i "half_states") (half_s i)

let late i =
  ratio (count i "states" -. count i "half_states") (total_s i "pte_mc.check" -. half_s i)

let table =
  [ ("pte_core.synthesis_s", "s", fun i -> total_s i "pte_core.synthesis");
    ("pte_core.pattern_s", "s", fun i -> total_s i "pte_core.pattern");
    ("pte_sim.create_s", "s", fun i -> total_s i "pte_sim.create");
    ("pte_hybrid.automata", "count", fun i -> count i "automata");
    ("pte_hybrid.locations", "count", fun i -> count i "locations");
    ("pte_hybrid.edges", "count", fun i -> count i "edges");
    ("pte_tracheotomy.build_s", "s", fun i -> total_s i "pte_tracheotomy.build");
    ("pte_sim.steps", "count", steps);
    ("pte_sim.step_self_s", "s", step_self_s);
    ("pte_sim.step_us_p50", "us", fun i -> Stats.Hist.percentile (hist i "pte_sim.step") 0.5 /. 1e3);
    ("pte_sim.step_us_p99", "us", fun i -> Stats.Hist.percentile (hist i "pte_sim.step") 0.99 /. 1e3);
    ( "pte_sim.step_ns_per_automaton", "ns",
      fun i -> ratio (step_self_s i *. 1e9) (steps i *. count i "automata") );
    ("gc.minor_words_per_step", "words", fun i -> ratio i.plain.minor_words (steps i));
    ("pte_hybrid.events", "count", fun i -> count i "events");
    ("pte_hybrid.trace_entries", "count", fun i -> count i "trace_entries");
    ("pte_core.sessions", "count", fun i -> count i "sessions");
    ("pte_hybrid.schedule_calls", "count", fun i -> calls i "pte_hybrid.schedule");
    ("pte_hybrid.schedule_s", "s", fun i -> sum_s i "pte_hybrid.schedule");
    ("pte_hybrid.cancel_calls", "count", fun i -> calls i "pte_hybrid.cancel");
    ("pte_hybrid.cancel_s", "s", fun i -> sum_s i "pte_hybrid.cancel");
    ( "pte_hybrid.run_self_s", "s",
      fun i ->
        match Span.durations i.tr "pte_hybrid.run" with
        | [] -> 0.0
        | _ -> total_s i "pte_hybrid.run" -. sum_s i "storm.callback" );
    ("gc.minor_words_per_event", "words", fun i -> ratio i.plain.minor_words (count i "events"));
    ("pte_net.route_calls", "count", fun i -> calls i "pte_net.route");
    ("pte_net.route_s", "s", fun i -> sum_s i "pte_net.route");
    ("pte_net.data_sends", "count", fun i -> count i "data_sends");
    ("pte_net.retransmissions", "count", fun i -> count i "retransmissions");
    ("pte_net.acks_lost", "count", fun i -> count i "acks_lost");
    ("pte_net.gave_up", "count", fun i -> count i "gave_up");
    ("pte_net.dups_suppressed", "count", fun i -> count i "dups_suppressed");
    ("pte_net.switches_up", "count", fun i -> count i "switches_up");
    ("pte_net.switches_down", "count", fun i -> count i "switches_down");
    ( "pte_net.delivery_per_attempt", "ratio",
      fun i -> ratio (count i "delivered") (count i "data_sends" +. count i "retransmissions") );
    ("pte_core.monitor_s", "s", fun i -> total_s i "pte_core.monitor");
    ("pte_campaign.job_s_p50", "s", fun i -> job_pct i 0.5);
    ("pte_campaign.job_s_p99", "s", fun i -> job_pct i 0.99);
    ("pte_campaign.job_self_s", "s", fun i -> s (Span.self_total i.tr "pte_campaign.job"));
    ("pte_campaign.busy_s", "s", fun i -> List.fold_left ( +. ) 0.0 (jobs i));
    ( "pte_campaign.utilization", "ratio",
      fun i ->
        ratio (List.fold_left ( +. ) 0.0 (jobs i))
          (total_s i "pte_campaign.run" *. count i "workers") );
    ("pte_mc.states", "count", fun i -> count i "states");
    ("pte_mc.transitions", "count", fun i -> count i "transitions");
    ("pte_mc.discrete_states", "count", fun i -> count i "discrete_states");
    ("pte_mc.max_zones_per_key", "count", fun i -> count i "max_zones_per_key");
    ( "pte_mc.zones_per_discrete_state", "ratio",
      fun i -> ratio (count i "states") (count i "discrete_states") );
    ("pte_mc.states_per_s_early", "1/s", early);
    ("pte_mc.states_per_s_late", "1/s", late);
    ("pte_mc.nolease_s", "s", fun i -> total_s i "pte_mc.nolease");
    ("pte_mc.nolease_states", "count", fun i -> count i "nolease_states");
    ("gc.major_collections", "count", fun i -> i.major_collections);
    ("gc.top_heap_mb", "MB", fun i -> i.top_heap_mb);
    ("bench.trace_overhead", "ratio", fun i -> ratio i.traced.wall_s i.plain.wall_s -. 1.0) ]

let metrics = List.map (fun (name, unit, _) -> (name, unit)) table
let compute input = List.map (fun (name, unit, f) -> (name, unit, f input)) table
