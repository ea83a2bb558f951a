(** Online channel-health estimation from transmission outcomes: a
    windowed delivery-confirmation rate, an EWMA of the loss
    indicator, and a consecutive-loss burst detector tuned against the
    Gilbert–Elliott interference channel. The adaptive transport keeps
    one, pooled over every sender; feed it one sample per transmission
    {e attempt} at the instant the outcome becomes known to the sender
    — per-attempt, not per-exchange, so the estimate tracks the
    channel itself rather than the residual failure rate left over by
    the current mode's redundancy. *)

type config = {
  window : int;  (** ring-buffer size for the windowed rate (>= 1). *)
  ewma_alpha : float;  (** EWMA weight of the newest outcome, (0, 1]. *)
  burst_k : int;  (** consecutive losses that flag a burst (>= 1). *)
  burst_floor : float;
      (** loss level a flagged burst forces {!loss_estimate} up to. *)
}

val default_config : config
(** [window = 20], [ewma_alpha = 0.1], [burst_k = 3],
    [burst_floor = 0.9]. [burst_k = 3] discriminates the wifi
    channel's states: three consecutive losses have probability 8e-6
    per triple in the good state (2% loss) and are routine in the bad
    state (90% loss, mean burst ~5 packets). [burst_floor] is that
    bad-state loss rate. *)

val validate : config -> (unit, string) result

type t

val create : config -> t
(** Raises [Invalid_argument] on an ill-formed config. *)

val record : t -> confirmed:bool -> at:float -> unit
(** One finished transmission attempt: [confirmed] iff the sender
    received a delivery confirmation for it, [at] the simulated
    instant the outcome became known. *)

val samples : t -> int
(** Outcomes recorded, lifetime. *)

val last_at : t -> float
(** Instant of the newest outcome (0 before the first). *)

val windowed_loss : t -> float
(** Loss rate over the last [window] outcomes (0 when empty). *)

val ewma_loss : t -> float
(** The EWMA of the loss indicator (seeded by the first outcome). *)

val in_burst : t -> bool
(** [burst_k] or more consecutive losses are currently running. *)

val consecutive_losses : t -> int
(** Length of the current consecutive-loss run. *)

val loss_estimate : t -> float
(** The conservative blend the escalation policy consumes:
    [max windowed ewma], floored at [burst_floor] while {!in_burst}.
    Over-estimation escalates early into a still-safe mode;
    under-estimation would delay escalation — so the blend leans
    pessimistic by construction. *)

val pp : t Fmt.t
