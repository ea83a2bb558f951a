(** Online channel-health estimation from transmission outcomes.

    The adaptive transport keeps one estimator, pooled over every
    sender of the star. Every transmission {e attempt} contributes one
    binary outcome — confirmed or not, recorded at the instant the
    sender learns it (per-attempt, so the estimate tracks the channel
    itself rather than the residual failure rate left over by whatever
    redundancy the current transport mode layers on top) — and the
    estimator maintains three views of the channel at once:

    - a {e windowed} confirmation rate over the last [window] outcomes
      (a ring buffer), which tracks level shifts quickly but is noisy;
    - an {e EWMA} of the loss indicator, which remembers further back
      and smooths the window's variance;
    - a {e burst detector}: the current run of consecutive losses,
      flagged once it reaches [burst_k].

    The burst threshold is tuned against the Gilbert–Elliott channel
    the trials use ({!Pte_net.Loss.wifi_interference}): its good state
    loses 2% per packet, so [burst_k = 3] consecutive losses happen
    with probability 8e-6 per triple in the good state, while the bad
    state (90% loss, mean burst ~5 packets) produces them routinely —
    three losses in a row is decisive evidence the burst process
    entered its bad state, long before the windowed average moves.

    {!loss_estimate} is the conservative blend the escalation policy
    consumes: the max of the windowed and EWMA loss rates, floored at
    the bad-state level while a burst is active. Conservative on
    purpose — over-estimating loss escalates to a still-safe mode
    early; under-estimating would delay an escalation the safety
    argument may want. *)

type config = {
  window : int;  (** ring-buffer size for the windowed rate. *)
  ewma_alpha : float;  (** EWMA weight of the newest outcome, (0, 1]. *)
  burst_k : int;  (** consecutive losses that flag a burst. *)
  burst_floor : float;
      (** loss level a flagged burst forces the estimate up to —
          the Gilbert–Elliott bad-state loss rate. *)
}

let default_config =
  { window = 20; ewma_alpha = 0.1; burst_k = 3; burst_floor = 0.9 }

let validate c =
  if c.window < 1 then Error "estimator: window must be >= 1"
  else if not (c.ewma_alpha > 0.0 && c.ewma_alpha <= 1.0) then
    Error "estimator: ewma_alpha must be in (0, 1]"
  else if c.burst_k < 1 then Error "estimator: burst_k must be >= 1"
  else if not (c.burst_floor >= 0.0 && c.burst_floor <= 1.0) then
    Error "estimator: burst_floor must be in [0, 1]"
  else Ok ()

type t = {
  config : config;
  ring : bool array;  (* true = lost *)
  mutable filled : int;  (* outcomes recorded, saturating at window *)
  mutable next : int;  (* ring write cursor *)
  mutable total : int;  (* outcomes recorded, lifetime *)
  mutable losses_in_window : int;
  mutable ewma : float;  (* smoothed loss indicator *)
  mutable run : int;  (* current consecutive-loss run *)
  mutable last_at : float;  (* instant of the newest outcome *)
}

let create config =
  (match validate config with Ok () -> () | Error msg -> invalid_arg msg);
  {
    config;
    ring = Array.make config.window false;
    filled = 0;
    next = 0;
    total = 0;
    losses_in_window = 0;
    ewma = 0.0;
    run = 0;
    last_at = 0.0;
  }

let record t ~confirmed ~at =
  let lost = not confirmed in
  if t.filled = t.config.window then begin
    (* the slot we overwrite leaves the window *)
    if t.ring.(t.next) then t.losses_in_window <- t.losses_in_window - 1
  end
  else t.filled <- t.filled + 1;
  t.ring.(t.next) <- lost;
  if lost then t.losses_in_window <- t.losses_in_window + 1;
  t.next <- (t.next + 1) mod t.config.window;
  t.total <- t.total + 1;
  let x = if lost then 1.0 else 0.0 in
  t.ewma <-
    (if t.total = 1 then x
     else (t.config.ewma_alpha *. x) +. ((1.0 -. t.config.ewma_alpha) *. t.ewma));
  t.run <- (if lost then t.run + 1 else 0);
  t.last_at <- at

let samples t = t.total
let last_at t = t.last_at

let windowed_loss t =
  if t.filled = 0 then 0.0
  else Float.of_int t.losses_in_window /. Float.of_int t.filled

let ewma_loss t = t.ewma
let in_burst t = t.run >= t.config.burst_k
let consecutive_losses t = t.run

let loss_estimate t =
  let base = Float.max (windowed_loss t) (ewma_loss t) in
  if in_burst t then Float.max base t.config.burst_floor else base

let pp ppf t =
  Fmt.pf ppf "est(n:%d win:%.2f ewma:%.2f run:%d%s -> %.2f)" t.total
    (windowed_loss t) (ewma_loss t) t.run
    (if in_burst t then " BURST" else "")
    (loss_estimate t)
