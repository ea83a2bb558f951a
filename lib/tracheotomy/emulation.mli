(** Assembly of the laser-tracheotomy wireless CPS emulation (Fig. 7):
    supervisor + wired SpO2 sensor (ξ0), pattern-elaborated ventilator
    (ξ1), surgeon-operated laser-scalpel (ξ2), patient model, ZigBee-like
    star network under WiFi-style interference. *)

type config = {
  params : Pte_core.Params.t;
  lease : bool;  (** [false] = the paper's "without Lease" baseline. *)
  loss : Pte_net.Loss.kind;
  e_ton : float;  (** E(Ton) — paper: 30 s. *)
  e_toff : float;  (** E(Toff) — paper: 18 s or 6 s. *)
  horizon : float;  (** trial length — paper: 30 minutes. *)
  dwell_bound : float;  (** Rule 1 bound for the trial — paper: 60 s. *)
  spo2_threshold : float;  (** Θ_SpO2 — paper: 92%. *)
  seed : int;
  dt : float;  (** executor step. *)
  mac_retries : int;
      (** 802.15.4 MAC retransmissions per frame (0 disables). *)
  faults : Pte_faults.Plan.t;
      (** Scripted fault plan injected on top of the stochastic loss
          model ({!Pte_faults.Plan.empty} = none). *)
  transport : Pte_net.Transport.mode;
      (** [`Bare] (default) is the paper's single-shot radio;
          [`Reliable _] adds ACK/retransmission and makes {!build}
          recheck Theorem 1 with the retry budget folded into the
          message-delay terms (raises [Invalid_argument] when the
          budget breaks c1–c7). *)
  degraded : Degraded.config option;
      (** Supervisor degraded-safe-mode ([None] = disabled). *)
}

val default : config
(** The paper's trial setup: case-study constants, lease on, 25% bursty
    loss, E(Ton)=30 s, E(Toff)=18 s, 1800 s, 60 s bound, Θ=92%, 10 ms
    step, bare transport, no degraded mode. *)

type built = {
  config : config;
  engine : Pte_sim.Engine.t;
  system : Pte_hybrid.System.t;
  net : Pte_net.Star.t;
  spec : Pte_core.Rules.t;
  laser : string;
  ventilator : string;
  spo2_stats : Pte_util.Stats.Online.t;
  faults_handle : Pte_faults.Injector.handle;
      (** Match/fire counters of the config's packet faults. *)
  transport : Pte_net.Transport.t;
      (** Delivery/retransmission/dedup counters of the trial. *)
  degraded : Degraded.handle option;
      (** Degraded-safe-mode entry counters (when configured). *)
}

val check_faults : config -> (unit, string) result
(** The config's fault plan against the system {!build} assembles: an
    [Error] names a packet fault on an entity without a radio link, or
    a node fault on an entity that is not an automaton of the system. *)

val build : config -> built
(** Assemble automata, network, couplings (lungs, oximeter) and surgeon
    timers. Raises [Invalid_argument] when {!check_faults} refuses the
    plan. *)

val run : built -> Pte_hybrid.Trace.t
(** Run to the horizon and return the trace. *)
