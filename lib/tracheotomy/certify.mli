(** Rare-event certification of the laser-tracheotomy case study:
    sequential stopping plus importance splitting over fault-plan
    severity.

    Table I stops at ~200 replicates: 0 observed violations there only
    bounds the failure rate near 1e-2. This driver certifies (or
    refutes) bounds down at 1e-6..1e-9 in two phases per design:

    + {e Screen} ({!Pte_rare.Seq}): an SPRT of "violation rate <=
      p0" against "rate >= p1" on plain replicates. The without-lease
      baseline fails here within a handful of trials (its violation
      rate is ~1, so the test rejects almost immediately); only designs
      that survive the screen earn the expensive phase.
    + {e Certify} ({!Pte_rare.Split}): importance splitting whose
      particles are replayable [(fault plan, trial seed)] artifacts.
      The level function {!level_score} measures how close a trial came
      to a violation (risky-dwell fraction of the Lemma-2 bound,
      feedback-blackout depth, lease expiries, with the plan's
      {!Pte_faults.Severity.rank} as a lexicographic tiebreak); cloning
      a survivor replays its (plan, seed) prefix and
      {!Pte_faults.Severity.escalate}s the plan — message drops and
      loss-profile bumps by default, the paper's fault model.

    The resulting bound is the splitting estimator's joint Wilson upper
    bound; see DESIGN §12 for exactly what it does and does not
    guarantee. *)

type config = {
  target : float;  (** bound to certify, e.g. 1e-6. *)
  confidence : float;  (** joint confidence of the certificate. *)
  min_effective : float;
      (** floor on {!Pte_rare.Split.result.effective_trials} for a
          certificate to count (default 1e6) — a bound reached through
          too-coarse stages is reported but not certified. *)
  horizon : float;  (** trial length, seconds. *)
  screen : Pte_rare.Sprt.config option;
      (** the SPRT screen; [None] skips straight to splitting. *)
  screen_max : int;  (** screen trial budget. *)
  split : Pte_rare.Split.config;
  crashes : bool;
      (** allow crash escalations (outside the paper's fault model). *)
  workers : int option;
  seed : int;
}

val default : config
(** target 1e-6 at confidence 0.99, 1e6 effective-trial floor, 1800 s
    horizon, screen p0=1e-3 / p1=0.05 / α=β=0.05 capped at 200 trials,
    {!Pte_rare.Split.default} with 64 particles x 16 stages, no
    crashes, seed 9300. *)

val smoke : config
(** A seconds-scale variant for CI: 300 s horizon, 16 particles x 10
    stages, target 1e-3, 1e3 effective-trial floor. *)

val validate : config -> (unit, string) result
(** The target lies in (0, 1), the effective-trial floor is finite and
    >= 0, the horizon is finite and > 0, the screen passes
    {!Pte_rare.Sprt.validate}, and the splitting config at [confidence]
    passes {!Pte_rare.Split.validate}. *)

val level_score :
  dwell_bound:float -> plan:Pte_faults.Plan.t -> Trial.result -> float
(** The splitting importance function. >= 1.0 iff the trial violated;
    otherwise a compound in [0, 0.995): 0.9 x (longest risky dwell /
    Lemma-2 bound) + saturating terms for feedback-blackout depth and
    ventilator lease expiries + a severity-rank tiebreak asymptotic to
    0.005 (rank/(rank+50), strictly increasing at any escalation depth
    so adaptive thresholds keep climbing when the continuous terms
    plateau — the level function is lexicographic in
    (closeness-to-violation, plan severity); a hard cap here stagnates
    deep runs once plans accumulate enough escalations). *)

(** One design under certification. *)
type design = { label : string; lease : bool; config : Emulation.config }

val designs : config -> design list
(** The case-study pair: with-lease and without-lease at the Table-I
    constants (25% bursty loss, bare transport) and the given horizon. *)

type cell = {
  design : design;
  screen : Pte_rare.Seq.result option;  (** [None] when skipped. *)
  split : Pte_rare.Split.result option;
      (** [None] when the screen already refuted. *)
  bound : float;  (** final upper bound on the violation rate. *)
  effective_trials : float;  (** 0 when the screen refuted. *)
  trials_run : int;  (** raw emulation trials spent on the cell. *)
  certified : bool;
      (** [bound <= target] and [effective_trials >= min_effective]. *)
}

type report = { config : config; cells : cell list }

val certify_design : config -> design -> cell
val run : ?config:config -> unit -> report
(** Certify both case-study designs. Raises [Invalid_argument] with the
    {!validate} message on a malformed config. *)

val exit_code : report -> int
(** 0 iff every with-lease cell certified AND every without-lease cell
    failed to certify (the case study's expected shape: the lease is
    both necessary and sufficient at the target bound). *)

val pp_cell : cell Fmt.t
val pp_report : report Fmt.t

val report_to_json : report -> Pte_util.Json.t
(** For bench artifacts: per-cell verdicts, bounds, stage levels and
    effective trials. *)
