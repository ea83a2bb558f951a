(** Per-endpoint reliable-delivery transport over the {!Star} links:
    sequence-numbered sends, receiver ACKs on the reverse link, bounded
    retransmission with exponential backoff + jitter, and receiver-side
    duplicate suppression by (src, seq).

    The transport plugs into the executor as its {!Pte_hybrid.Executor.router}.
    In [`Bare] mode it behaves exactly like {!Star.router} — one attempt
    per send, no ACKs, no RNG consumption — except that replayed frames
    (an injected [Duplicate_frame]) are suppressed at the receiver, so
    the automaton is handed each (src, seq) at most once. In
    [`Reliable _] mode every radio send becomes an ARQ exchange: the
    sender retransmits on a backoff schedule until an ACK comes back or
    the retry budget is exhausted.

    Exchanges are simulated {e event-driven}: the router answers
    [Deferred] and runs each exchange as a state machine on the
    executor's timeline. Every attempt hits the channel at its true
    wall-clock time — so channel state (e.g. the Gilbert–Elliott burst
    process, the wall-clock interferer) evolves between attempts and
    across concurrent exchanges — and each attempt arms a revocable
    executor timer ({!Pte_hybrid.Executor.schedule} /
    {!Pte_hybrid.Executor.cancel}): an arriving ACK cancels the pending
    retransmission before the channel ever sees it, and exhaustion of
    the retry budget fires the give-up asynchronously, at the sender's
    final timeout. Consequently {!consecutive_losses} (and the [gave_up]
    / ACK statistics) move at {e confirmation time} — when the outcome
    becomes known to the sender — which is what the supervisor's
    degraded-safe-mode actually observes. Each exchange draws its
    backoff jitter from a private stream keyed by (flow, seq)
    ({!Pte_util.Rng.keyed}), so behaviour per seed is independent of how
    exchanges interleave; [`Bare] mode draws nothing and stays
    byte-identical to the legacy streams.

    {!worst_case_latency} is unchanged by the event-driven rewrite and
    stays the binding closed-form bound on the delivery delay of any
    successful send: attempt [k] is sent at the nominal schedule time
    [sum_(j<k) (rto j + jitter_j)] after the emission (timers carry
    nominal due times, so step quantization does not accumulate), and
    the winning copy adds at most one frame delay. Callers feed the
    bound into the Theorem-1 constraint recheck
    ({!Pte_core.Constraints.satisfies_with_delay}) exactly as before, so
    the availability win remains provably safety-preserving. *)

(** Retransmission policy. Attempt [k] (0-based) is followed, if
    unacknowledged, by a wait of
    [min (base_rto *. multiplier^k) cap + U(0, jitter)] before attempt
    [k+1]; at most [max_retries] retransmissions follow the initial
    attempt. *)
type config = {
  max_retries : int;  (** retransmissions after the first attempt. *)
  base_rto : float;  (** initial retransmission timeout, seconds. *)
  multiplier : float;  (** exponential backoff factor (>= 1). *)
  cap : float;  (** ceiling on the backoff, seconds. *)
  jitter : float;  (** uniform extra wait in [0, jitter) per retry. *)
}

val default_config : config
(** 3 retries, 250 ms RTO, x2 backoff capped at 2 s, 50 ms jitter —
    worst case ~1.93 s, inside the case study's 2 s Theorem-1 slack
    ({!Pte_core.Constraints.max_delay_budget}). *)

val validate : config -> (unit, string) result
(** Well-formedness: [max_retries >= 0], positive [base_rto],
    [multiplier >= 1], [cap >= base_rto], [jitter >= 0], and every
    float field finite. *)

(** Configuration of the [`Adaptive] mode: which static mode carries
    traffic while the channel is healthy, the synthesis template for
    the degraded [`Scheduled] mode — its [loss] field is replaced by
    the channel-health estimate at each escalation, so the blind retry
    count matches the loss the channel is actually showing — and the
    estimator / escalation-policy knobs. [budget] is the stand-alone
    admission bound on a candidate mode's worst-case latency, used
    when no {!set_admit} callback is installed. *)
type adaptive_config = {
  healthy : [ `Bare | `Reliable of config ];
  degraded : Pte_sched.Synth.policy;
  estimator : Pte_adapt.Estimator.config;
  policy : Pte_adapt.Policy.config;
  budget : float option;
}

type mode =
  [ `Bare
  | `Reliable of config
  | `Scheduled of Pte_sched.Synth.policy
  | `Adaptive of adaptive_config ]
(** [`Scheduled] is the time-triggered third mode (TTW-style): radio
    sends are admitted into a static TDMA round schedule synthesized
    from the star at {!create} ({!Pte_sched.Synth.synthesize}), and
    each admitted send blindly transmits [1 + retries] copies in its
    link's slot of consecutive rounds — no ACKs, no feedback, so the
    worst-case delivery latency of an admitted send is the design-time
    constant {!Pte_sched.Schedule.link_worst_case_latency}. Sends past
    the per-link admission bound ([depth]) are rejected at admission
    and counted as [gave_up] — the protocol layer above tolerates loss,
    and rejecting is what keeps the bound closed-form. Like [`Bare],
    the mode never draws from the transport [rng]; like [`Reliable],
    it runs event-driven on the executor's timer queue. Injected
    [Delay_frame] faults sit outside the synthesized bound, exactly as
    they sit outside {!worst_case_latency}.

    [`Adaptive] switches between a healthy sub-mode and the degraded
    [`Scheduled] sub-mode at runtime, driven by an online
    channel-health estimator ({!Pte_adapt.Estimator}) pooled over all
    senders and an escalation policy with hysteresis
    ({!Pte_adapt.Policy}). Every switch runs the {e safe-switch
    protocol}: the candidate mode's worst-case latency is rechecked
    against the Theorem-1 delay budget ({!set_admit}, or the
    configured [budget]) {e before} committing; an inadmissible
    candidate is refused — the transport stays in its current,
    still-admitted mode and counts a [switch_refusals]. An admitted
    switch first quiesces: it commits when the in-flight exchanges of
    the outgoing mode have drained, or at that mode's own worst-case
    latency, whichever comes first (a revocable timer on the
    executor's queue). A drained [`Scheduled] exit is automatically
    round-aligned. The time-out fires when an ARQ exchange's ACKs are
    lost: the exchange resolves only at its give-up timer, past the
    delivery bound, and so straddles the switch — each of its
    deliveries still lands within the bound of the mode that admitted
    it. *)

val default_adaptive : adaptive_config
(** [`Reliable default_config] while healthy (indistinguishable from
    bare on a clean channel, but a de-escalation under a mis-estimated
    recovery lands on ARQ rather than single-shot sends),
    {!Pte_sched.Synth.default_policy} as the degraded template, default
    estimator and policy knobs, no stand-alone budget. *)

val validate_adaptive : adaptive_config -> (unit, string) result

val mode_of_string : string -> (mode, string) result
(** Parse a CLI transport spec: ["bare"], ["reliable"], ["scheduled"],
    ["adaptive"], ["reliable:key=value,..."] with keys [retries],
    [rto], [multiplier], [cap] and [jitter],
    ["scheduled:key=value,..."] with keys [slot], [retries], [loss],
    [confidence], [depth] and [budget], or ["adaptive:key=value,..."]
    with keys [healthy] (bare|reliable), [degrade], [recover], [dwell],
    [samples], [window], [burst] and [budget]. A reliable or adaptive
    config is validated here; a scheduled policy is checked at
    {!create}, where the topology is known. A malformed spec surfaces
    as [Error] with the reason. *)

val conv : mode Cmdliner.Arg.conv
(** The [--transport] converter shared by every CLI: {!mode_of_string}
    on the way in, {!pp_mode} on the way out, so a new mode (or a
    reworded error) lands in every binary at once. *)

val rto : config -> attempt:int -> float
(** Backoff after the [attempt]-th send (0-based), jitter excluded:
    [min (base_rto *. multiplier^attempt) cap]. *)

val max_attempts : config -> int
(** [max_retries + 1]. *)

val worst_case_latency : config -> frame_delay:float -> float
(** Closed-form bound on the delivery delay of any send the transport
    reports delivered: the attempt schedule spans at most
    [sum_(k=0)^(max_retries-1) (rto k + jitter)], and the winning copy
    adds at most one [frame_delay] ({!Star.worst_frame_delay}) in the
    air. Injected [Delay_frame] faults sit outside the bound. Once the
    backoff reaches [cap], the remaining retries are added in one step,
    so any retry count, [max_int] included, costs no more than the
    retries before the cap. *)

(** Cumulative counters over every radio send routed through the
    transport. At quiescence (no exchange still in flight)
    [data_sends = delivered + gave_up] and every suppressed copy is
    counted exactly once in [dups_suppressed]. *)
type stats = {
  mutable data_sends : int;  (** application sends (not attempts). *)
  mutable delivered : int;  (** sends with >= 1 copy delivered. *)
  mutable gave_up : int;  (** sends lost after the full retry budget. *)
  mutable retransmissions : int;  (** extra attempts beyond the first. *)
  mutable acks_sent : int;
  mutable acks_lost : int;
  mutable dups_suppressed : int;
      (** replayed copies squashed at the receiver by (src, seq). *)
  mutable worst_latency : float;
      (** largest observed send-to-delivery delay across delivered
          sends, seconds — the measured counterpart of the mode's
          closed-form bound ({!worst_case_latency} /
          {!Pte_sched.Schedule.worst_case_latency}). *)
  mutable max_consec_losses : int;
      (** high-water mark of the per-sender {!consecutive_losses}
          counters over the whole trial: the deepest feedback blackout
          any sender experienced. One component of the rare-event
          certification level function — how close the trial came to
          the degraded-safe-mode trip (and, past it, to a with-lease
          violation). 0 in [`Bare] mode (no feedback to lose). *)
  mutable switches_up : int;
      (** [`Adaptive]: committed escalations healthy → degraded. *)
  mutable switches_down : int;
      (** [`Adaptive]: committed de-escalations degraded → healthy. *)
  mutable switch_refusals : int;
      (** [`Adaptive]: switches the safe-switch protocol refused —
          the Theorem-1 recheck rejected the candidate mode (or its
          synthesis failed), so the transport stayed put. *)
}

type t

val create :
  mode:mode -> rng:Pte_util.Rng.t -> exec:Pte_hybrid.Executor.t -> Star.t -> t
(** [exec] is the executor whose timeline carries the transport's
    timers and arrivals; {!router} is meant to be its router. In
    [`Bare] and [`Scheduled] modes the transport never draws from
    [rng] (legacy RNG streams are untouched); [`Reliable _] keys one
    private jitter stream per exchange off it. A [`Reliable] config is
    {!validate}d and a [`Scheduled] policy is synthesized against the
    star's links right here ({!Pte_sched.Synth.synthesize}); an
    ill-formed config or a failed synthesis raises [Invalid_argument]
    with the reason. *)

val stats : t -> stats

val schedule : t -> Pte_sched.Schedule.t option
(** The concrete round schedule synthesized at {!create} —
    [Some _] exactly in [`Scheduled] mode. Its
    {!Pte_sched.Schedule.worst_case_latency} is the bound callers feed
    into the Theorem-1 recheck, in place of {!worst_case_latency}. In
    [`Adaptive] mode, the schedule the safe-switch protocol last
    committed — [Some _] exactly while degraded. *)

(** {2 Adaptive mode} *)

val set_admit : t -> (candidate_latency:float -> bool) -> unit
(** Install the Theorem-1 admission callback the safe-switch protocol
    consults before committing a mode switch: given the candidate
    mode's worst-case latency, decide whether the c1–c7 constraint
    system stays satisfiable at that delay. The emulation layer wires
    {!Pte_core.Constraints.satisfies_with_delay} in here (the net
    layer cannot depend on the core). Without a callback the
    configured [budget] bounds admission; with neither, every
    candidate is admitted. No-op outside [`Adaptive] mode. *)

val router : t -> Pte_hybrid.Executor.router
(** The executor transport hook. Non-star automata stay wired;
    remote-to-remote sends are dropped and counted, as in
    {!Star.router}. In [`Reliable _] and [`Scheduled _] modes radio
    sends answer [Deferred] and run event-driven (see above). *)

(** {2 Exchange observation}

    Test instrumentation: one callback per exchange milestone, fired at
    the simulated instant the milestone occurs. *)

type event =
  | Exchange_delivered of {
      src : string;
      dst : string;
      seq : int;
      sent_at : float;
      arrival : float;  (** first fresh copy handed to the automaton. *)
    }
  | Exchange_confirmed of { src : string; dst : string; seq : int; at : float }
      (** the ACK reached the sender; the pending retransmission timer
          (if any) was cancelled. *)
  | Exchange_gave_up of { src : string; dst : string; seq : int; at : float }
      (** the retry budget ran out without a confirmation (the data may
          still have been delivered — a pure feedback loss). *)

val set_observer : t -> (event -> unit) -> unit

val consecutive_losses : t -> sender:string -> int
(** Consecutive sends from [sender] that ended without delivery
    confirmation — in [`Reliable _] mode, without a received ACK (the
    sender's view: a delivered frame whose ACK was lost still counts as
    a feedback loss), counted at the instant the retry budget expires;
    in [`Bare] mode, dropped frames, counted at the send; in
    [`Scheduled] mode, sends none of whose blind copies reached the
    receiver (the oracle view — there is no feedback channel), counted
    when the blind span ends. Reset to 0 by the next confirmed send.
    Feeds the supervisor's degraded-safe-mode. *)

val reset_consecutive_losses : t -> sender:string -> unit

val pp_config : config Fmt.t
val pp_mode : mode Fmt.t
val pp_stats : stats Fmt.t
