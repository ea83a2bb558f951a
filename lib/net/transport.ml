(** Per-endpoint reliable-delivery transport over the star links: ARQ
    with bounded exponential backoff, receiver ACKs on the reverse link,
    and (src, seq) duplicate suppression. Reliable exchanges run
    event-driven on the executor's timeline — see the interface. *)

module Executor = Pte_hybrid.Executor

type config = {
  max_retries : int;
  base_rto : float;
  multiplier : float;
  cap : float;
  jitter : float;
}

let default_config =
  { max_retries = 3; base_rto = 0.25; multiplier = 2.0; cap = 2.0;
    jitter = 0.05 }

let validate c =
  if c.max_retries < 0 then Error "transport: max_retries must be >= 0"
  else if not (c.base_rto > 0.0) then Error "transport: base_rto must be > 0"
  else if c.multiplier < 1.0 then Error "transport: multiplier must be >= 1"
  else if c.cap < c.base_rto then Error "transport: cap must be >= base_rto"
  else if c.jitter < 0.0 then Error "transport: jitter must be >= 0"
  else
    (* NaN passes every comparison above, and infinity the first: a
       non-finite field would surface as a NaN timer due time *)
    match
      List.find_opt
        (fun (_, v) -> not (Float.is_finite v))
        [ ("base_rto", c.base_rto); ("multiplier", c.multiplier);
          ("cap", c.cap); ("jitter", c.jitter) ]
    with
    | Some (field, _) -> Error ("transport: " ^ field ^ " must be finite")
    | None -> Ok ()

(** Configuration of the [`Adaptive] mode: which static mode carries
    traffic while the channel is healthy, the synthesis template for
    the degraded [`Scheduled] mode (its [loss] is replaced by the
    estimate at escalation time), and the estimator / escalation-policy
    knobs. [budget] is the stand-alone admission bound used when no
    {!set_admit} callback is installed. *)
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

let default_adaptive =
  {
    (* ARQ while healthy: indistinguishable from bare on a clean
       channel, but a de-escalation under a mis-estimated recovery
       lands on retransmissions instead of single-shot sends *)
    healthy = `Reliable default_config;
    degraded = Pte_sched.Synth.default_policy;
    estimator = Pte_adapt.Estimator.default_config;
    policy = Pte_adapt.Policy.default_config;
    budget = None;
  }

let validate_adaptive a =
  let ( let* ) = Result.bind in
  let* () =
    match a.healthy with `Bare -> Ok () | `Reliable cfg -> validate cfg
  in
  let* () = Pte_adapt.Estimator.validate a.estimator in
  Pte_adapt.Policy.validate a.policy

let rto c ~attempt =
  Float.min (c.base_rto *. (c.multiplier ** Float.of_int attempt)) c.cap

let max_attempts c = c.max_retries + 1

let worst_case_latency c ~frame_delay =
  let rec backoffs k acc =
    if k >= c.max_retries then acc
    else
      let rto = rto c ~attempt:k in
      (* the backoff never shrinks (multiplier >= 1): once capped, every
         remaining attempt adds cap + jitter *)
      if rto >= c.cap then
        acc +. (Float.of_int (c.max_retries - k) *. (c.cap +. c.jitter))
      else backoffs (k + 1) (acc +. rto +. c.jitter)
  in
  backoffs 0 0.0 +. frame_delay

type stats = {
  mutable data_sends : int;
  mutable delivered : int;
  mutable gave_up : int;
  mutable retransmissions : int;
  mutable acks_sent : int;
  mutable acks_lost : int;
  mutable dups_suppressed : int;
  mutable worst_latency : float;
  mutable max_consec_losses : int;
  mutable switches_up : int;
  mutable switches_down : int;
  mutable switch_refusals : int;
}

type event =
  | Exchange_delivered of {
      src : string;
      dst : string;
      seq : int;
      sent_at : float;
      arrival : float;
    }
  | Exchange_confirmed of { src : string; dst : string; seq : int; at : float }
  | Exchange_gave_up of { src : string; dst : string; seq : int; at : float }

(* Receiver-side dedup state for one (src, dst) flow. Sequence numbers
   are allocated monotonically per flow (link frames in `Bare mode,
   end-to-end exchange numbers in `Reliable mode), so a cumulative
   high-water mark plus a small window for copies that overtake each
   other replaces the old one-entry-per-send hashtable: memory is
   O(flows + window), not O(sends). *)
let dedup_window = 64

type flow_seen = {
  mutable high : int;  (* every seq <= high counts as already seen *)
  mutable recent : int list;  (* seen seqs above the high-water mark *)
}

(* Per-link reservation state in `Scheduled mode: [next_free] is the
   end of the last admitted send's blind-copy span (admission never
   books a slot before it), and [inflight] counts admitted sends whose
   span has not yet passed — the admission bound that keeps
   {!Pte_sched.Schedule.link_worst_case_latency} closed-form. *)
type sched_link = { mutable next_free : float; mutable inflight : int }

module Schedule = Pte_sched.Schedule

(* How a radio send is carried. A [Scheduled] sender keeps the hashed
   (src, dst) -> entry view of its schedule: the per-send
   [Schedule.find] list walk is O(links) — thousands of entries on a
   1000-entity star. *)
type sender =
  | Bare
  | Reliable of config
  | Scheduled of { sched : Schedule.t; index : Schedule.index }

(* Runtime state of the `Adaptive mode's safe-switch protocol. The live
   sender carries new sends: the healthy one, or a [Scheduled] one
   synthesized at escalation (the degraded tier). A pending switch has
   been admitted (Theorem-1 recheck passed) and is quiescing — waiting
   for in-flight exchanges of the outgoing mode to drain, bounded by a
   time-out timer at the outgoing mode's own worst-case latency. *)
type adapt = {
  cfg : adaptive_config;
  (* pooled over every sender: the star shares one interference
     environment, so outcomes from every sender inform the switch *)
  pool : Pte_adapt.Estimator.t;
  healthy : sender;
  mutable live : sender;
  mutable switched_at : float;
  mutable samples_since : int;  (* outcomes since the last switch *)
  mutable pending : (sender * Executor.token) option;  (* target, time-out *)
  mutable admit : (candidate_latency:float -> bool) option;
}

type engine = Static of sender | Adaptive of adapt

type t = {
  star : Star.t;
  engine : engine;
  rng : Pte_util.Rng.t;
  (* the executor whose timeline carries this transport's timers and
     arrivals (`Reliable and `Scheduled senders). *)
  exec : Executor.t;
  stats : stats;
  seen : (string * string, flow_seen) Hashtbl.t;
  (* per-flow end-to-end sequence counters (`Reliable mode). *)
  next_seq : (string * string, int ref) Hashtbl.t;
  (* per-sender consecutive unconfirmed sends, for degraded-safe-mode. *)
  consec : (string, int ref) Hashtbl.t;
  (* per-link reservation state (`Scheduled mode). *)
  sched_links : (string * string, sched_link) Hashtbl.t;
  mutable observer : (event -> unit) option;
  (* exchanges admitted but not yet resolved (reliable exchanges and
     scheduled blind spans) — the quiesce condition of the safe-switch
     protocol. *)
  mutable inflight_exchanges : int;
}

let live t = match t.engine with Static s -> s | Adaptive a -> a.live

(* A sender's closed-form latency bound: what the safe-switch protocol
   rechecks before switching to it, and the quiesce deadline when
   switching away from it. *)
let sender_wcl star = function
  | Bare -> Star.worst_frame_delay star
  | Reliable cfg ->
      worst_case_latency cfg ~frame_delay:(Star.worst_frame_delay star)
  | Scheduled { sched; _ } -> Schedule.worst_case_latency sched

let synthesize star policy =
  Result.map
    (fun sched -> Scheduled { sched; index = Schedule.index sched })
    (Pte_sched.Synth.synthesize policy ~links:(Star.schedule_links star))

let create ~mode ~rng ~exec star =
  let check = function Ok () -> () | Error msg -> invalid_arg msg in
  let engine =
    match mode with
    | `Bare -> Static Bare
    | `Reliable cfg ->
        check (validate cfg);
        Static (Reliable cfg)
    | `Scheduled policy -> (
        match synthesize star policy with
        | Ok sender -> Static sender
        | Error e -> invalid_arg (Pte_sched.Synth.error_to_string e))
    | `Adaptive a ->
        check (validate_adaptive a);
        let healthy =
          match a.healthy with `Bare -> Bare | `Reliable cfg -> Reliable cfg
        in
        Adaptive
          {
            cfg = a;
            pool = Pte_adapt.Estimator.create a.estimator;
            healthy;
            live = healthy;
            switched_at = 0.0;
            samples_since = 0;
            pending = None;
            admit = None;
          }
  in
  {
    star;
    engine;
    rng;
    exec;
    stats =
      { data_sends = 0; delivered = 0; gave_up = 0; retransmissions = 0;
        acks_sent = 0; acks_lost = 0; dups_suppressed = 0;
        worst_latency = 0.0; max_consec_losses = 0; switches_up = 0;
        switches_down = 0; switch_refusals = 0 };
    seen = Hashtbl.create 8;
    next_seq = Hashtbl.create 8;
    consec = Hashtbl.create 8;
    sched_links = Hashtbl.create 8;
    observer = None;
    inflight_exchanges = 0;
  }

let set_observer t f = t.observer <- Some f
let observe t ev = match t.observer with Some f -> f ev | None -> ()

let stats t = t.stats

let schedule t =
  match live t with
  | Scheduled { sched; _ } -> Some sched
  | Bare | Reliable _ -> None

let record_latency t d =
  if d > t.stats.worst_latency then t.stats.worst_latency <- d

let counter t sender =
  match Hashtbl.find_opt t.consec sender with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.consec sender r;
      r

let consecutive_losses t ~sender = !(counter t sender)
let reset_consecutive_losses t ~sender = counter t sender := 0

(* ------------------------------------------------------------------ *)
(* `Adaptive mode: estimation, escalation and the safe-switch protocol *)
(* ------------------------------------------------------------------ *)

let set_admit t f =
  match t.engine with Adaptive a -> a.admit <- Some f | Static _ -> ()

(* Theorem-1 admission of a candidate mode. The emulation layer
   injects the real c1–c7 recheck ({!set_admit}); stand-alone, the
   configured budget is the bound; with neither, every candidate is
   admitted (the static create-time story then applies unchanged). *)
let adapt_admit a ~candidate_latency =
  match a.admit with
  | Some f -> f ~candidate_latency
  | None -> (
      match a.cfg.budget with
      | Some budget -> candidate_latency <= budget
      | None -> true)

let adapt_commit t a target ~at =
  (match a.pending with
  | Some (_, token) -> Executor.cancel t.exec token
  | None -> ());
  a.pending <- None;
  (match target with
  | Scheduled _ -> t.stats.switches_up <- t.stats.switches_up + 1
  | Bare | Reliable _ -> t.stats.switches_down <- t.stats.switches_down + 1);
  a.live <- target;
  a.switched_at <- at;
  a.samples_since <- 0

(* A switch was admitted: commit at once if no exchange of the
   outgoing mode is in flight, otherwise quiesce — commit when the last
   in-flight exchange resolves, or at the outgoing mode's worst-case
   latency, whichever comes first. The time-out does fire: an ARQ
   exchange whose ACKs are lost resolves only at its give-up timer,
   [rto max_retries + jitter] after its last attempt, past the delivery
   bound. Such an exchange straddles the switch, and each of its
   deliveries still lands within the bound of the mode that admitted
   it. A drained `Scheduled exit is automatically round-aligned: the
   last blind span ends at a slot boundary plus the resolution
   margin. *)
let adapt_start_switch t a target ~at =
  if t.inflight_exchanges = 0 then adapt_commit t a target ~at
  else
    let deadline = at +. sender_wcl t.star a.live in
    let token =
      Executor.schedule t.exec ~owner:"<adaptive-switch>" ~at:deadline
        (fun _ ->
          (* fired: nothing left to cancel *)
          a.pending <- None;
          adapt_commit t a target ~at:deadline)
    in
    a.pending <- Some (target, token)

let adapt_refuse t a ~at =
  t.stats.switch_refusals <- t.stats.switch_refusals + 1;
  (* a refused switch re-arms the dwell clock: the next attempt waits
     another [min_dwell], so a persistently inadmissible candidate is
     retried at a bounded rate rather than on every outcome *)
  a.switched_at <- at

let adapt_try t a candidate ~now =
  if adapt_admit a ~candidate_latency:(sender_wcl t.star candidate) then
    adapt_start_switch t a candidate ~at:now
  else adapt_refuse t a ~at:now

let adapt_evaluate t a ~now =
  if Option.is_none a.pending then
    let estimate = Pte_adapt.Estimator.loss_estimate a.pool in
    let tier =
      match a.live with
      | Scheduled _ -> Pte_adapt.Policy.Degraded
      | Bare | Reliable _ -> Pte_adapt.Policy.Healthy
    in
    let decision =
      Pte_adapt.Policy.decide a.cfg.policy ~tier ~estimate
        ~samples:a.samples_since ~since_switch:(now -. a.switched_at)
        ~in_burst:(Pte_adapt.Estimator.in_burst a.pool)
    in
    match decision with
    | Pte_adapt.Policy.Stay -> ()
    | Pte_adapt.Policy.Deescalate -> adapt_try t a a.healthy ~now
    | Pte_adapt.Policy.Escalate -> (
        (* re-synthesize the round schedule for the loss the channel is
           actually showing (capped below 1 so the retry count stays
           finite); refuse — and stay in the current, still-admitted
           mode — if the synthesis or the Theorem-1 recheck rejects *)
        let policy =
          { a.cfg.degraded with Pte_sched.Synth.loss = Float.min estimate 0.95 }
        in
        match synthesize t.star policy with
        | Error _ -> adapt_refuse t a ~at:now
        | Ok candidate -> adapt_try t a candidate ~now)

(* Feed the channel estimator one sample at the instant its outcome
   becomes known to the sender. Samples are per *attempt*, not per
   exchange: an ARQ exchange that needed three tries records two losses
   and a success, and a blind span records every copy's fate — so the
   estimate tracks the channel itself, independent of how much
   redundancy the current mode layers on top. (Exchange-level feeding
   would see only the residual failure rate: ~2 % under ARQ on a 60 %
   channel, masking the loss the degraded schedule must be synthesized
   for — and, mirrored, a degraded mode whose spans almost always
   deliver would decay the estimate and de-escalate prematurely.) *)
let adapt_outcome t ~confirmed ~at =
  match t.engine with
  | Static _ -> ()
  | Adaptive a ->
      Pte_adapt.Estimator.record a.pool ~confirmed ~at;
      a.samples_since <- a.samples_since + 1;
      adapt_evaluate t a ~now:at

(* An exchange resolved: the quiesce condition of a pending switch may
   just have been reached. *)
let exchange_resolved t ~at =
  t.inflight_exchanges <- t.inflight_exchanges - 1;
  match t.engine with
  | Adaptive ({ pending = Some (target, _); _ } as a)
    when t.inflight_exchanges = 0 ->
      adapt_commit t a target ~at
  | Adaptive _ | Static _ -> ()

(* High-water mark of the per-sender consecutive-loss counters: the
   deepest feedback blackout any sender saw in the trial — the
   certification level function's loss component. *)
let bump t sender =
  let c = counter t sender in
  incr c;
  if !c > t.stats.max_consec_losses then t.stats.max_consec_losses <- !c

let confirm t sender ~at =
  counter t sender := 0;
  adapt_outcome t ~confirmed:true ~at

let unconfirmed t sender ~at =
  bump t sender;
  adapt_outcome t ~confirmed:false ~at

(* The consecutive-loss counters alone — for outcomes that are not
   channel observations (admission rejections) or whose channel
   evidence was already fed to the estimator copy by copy. The
   degraded-safe-mode watchdog stays at exchange granularity either
   way: k consecutive *exchanges* lost, not k attempts. *)
let consec_confirm t sender = counter t sender := 0
let consec_unconfirmed t sender = bump t sender

let flow_seen t ~src ~dst =
  match Hashtbl.find_opt t.seen (src, dst) with
  | Some fs -> fs
  | None ->
      let fs = { high = -1; recent = [] } in
      Hashtbl.add t.seen (src, dst) fs;
      fs

(* First sighting of (src, dst, seq) at the receiver? Records it. A seq
   at or below the flow's high-water mark is a replay by construction;
   above it, [recent] disambiguates copies that arrive out of order
   (overlapping exchanges). Seqs falling more than [dedup_window] behind
   the newest are conservatively treated as replays, which bounds the
   window: in-flight exchanges per flow never approach that span. *)
let fresh t ~src ~dst ~seq =
  let fs = flow_seen t ~src ~dst in
  if seq <= fs.high || List.mem seq fs.recent then false
  else begin
    fs.recent <- seq :: fs.recent;
    if seq > fs.high + dedup_window then fs.high <- seq - dedup_window;
    let rec absorb () =
      if List.mem (fs.high + 1) fs.recent then begin
        fs.high <- fs.high + 1;
        absorb ()
      end
    in
    absorb ();
    fs.recent <- List.filter (fun s -> s > fs.high) fs.recent;
    true
  end

let flow_seq t ~src ~dst =
  let r =
    match Hashtbl.find_opt t.next_seq (src, dst) with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.add t.next_seq (src, dst) r;
        r
  in
  let q = !r in
  incr r;
  q

type hop = Wired | No_route | Radio of Link.t

let hop t ~sender ~receiver =
  if not (Star.is_node t.star sender && Star.is_node t.star receiver) then
    Wired
  else
    match Star.link_for t.star ~sender ~receiver with
    | None ->
        t.star.Star.remote_to_remote_dropped <-
          t.star.Star.remote_to_remote_dropped + 1;
        No_route
    | Some link -> Radio link

(* ------------------------------------------------------------------ *)
(* `Bare mode: one attempt, no ACKs — Star.router semantics plus the
   (src, seq) replay filter on injected duplicates.                    *)
(* ------------------------------------------------------------------ *)

let bare_send t link ~time ~sender ~receiver ~root =
  t.stats.data_sends <- t.stats.data_sends + 1;
  match Link.send link ~time ~src:sender ~dst:receiver ~root with
  | Link.Drop _ ->
      unconfirmed t sender ~at:time;
      t.stats.gave_up <- t.stats.gave_up + 1;
      Executor.Lose
  | Link.Deliver { arrival; packet } ->
      confirm t sender ~at:time;
      if fresh t ~src:sender ~dst:receiver ~seq:packet.Packet.seq then begin
        t.stats.delivered <- t.stats.delivered + 1;
        record_latency t (arrival -. time);
        Executor.Deliver (arrival -. time)
      end
      else begin
        (* cannot happen with per-link sequence numbers, but keep the
           filter total: a send whose only copy is suppressed is a lost
           send, not a delivered one *)
        t.stats.dups_suppressed <- t.stats.dups_suppressed + 1;
        t.stats.gave_up <- t.stats.gave_up + 1;
        Executor.Lose
      end
  | Link.Deliver_dup { arrivals = a1, _; packet } ->
      confirm t sender ~at:time;
      if fresh t ~src:sender ~dst:receiver ~seq:packet.Packet.seq then begin
        (* the replayed copy carries the same (src, seq): suppress it *)
        t.stats.delivered <- t.stats.delivered + 1;
        t.stats.dups_suppressed <- t.stats.dups_suppressed + 1;
        record_latency t (a1 -. time);
        Executor.Deliver (a1 -. time)
      end
      else begin
        t.stats.dups_suppressed <- t.stats.dups_suppressed + 2;
        t.stats.gave_up <- t.stats.gave_up + 1;
        Executor.Lose
      end

(* ------------------------------------------------------------------ *)
(* `Reliable mode: event-driven ARQ exchanges                          *)
(* ------------------------------------------------------------------ *)

let ack_root root = "ack:" ^ root

(* One in-progress ARQ exchange. The sender side is a small state
   machine driven by executor timers: every attempt arms the next
   retransmission (or, after the last attempt, the give-up timeout);
   an arriving ACK cancels the armed timer and resolves the exchange. *)
type exchange = {
  ex_cfg : config;
  ex_link : Link.t;
  ex_ack_link : Link.t option;
  ex_src : string;
  ex_dst : string;
  ex_root : string;
  ex_seq : int;
  (* private jitter stream, keyed by (flow, seq): the backoff schedule
     of an exchange is a function of the seed and its identity alone,
     independent of how exchanges interleave on the timeline. *)
  ex_rng : Pte_util.Rng.t;
  ex_sent_at : float;
  mutable ex_timer : Executor.token option;
  mutable ex_arrived : bool;  (* a fresh copy reached the automaton *)
  mutable ex_in_flight : int;  (* data copies in the air *)
  mutable ex_resolved : bool;  (* sender side: confirmed or gave up *)
}

(* The ACK made it back: the sender learns the outcome, stands down the
   pending retransmission (revoking it before the channel ever sees the
   frame) and clears the consecutive-loss counter — at the instant the
   confirmation actually arrives. *)
let resolve_confirmed t ex ~at =
  if not ex.ex_resolved then begin
    ex.ex_resolved <- true;
    (match ex.ex_timer with
    | Some token ->
        Executor.cancel t.exec token;
        ex.ex_timer <- None
    | None -> ());
    exchange_resolved t ~at;
    confirm t ex.ex_src ~at;
    observe t
      (Exchange_confirmed { src = ex.ex_src; dst = ex.ex_dst; seq = ex.ex_seq; at })
  end

(* The retry budget ran out without a confirmation: the sender counts a
   feedback loss now — when it becomes known — not at the send instant.
   Only if no copy reached (or is still flying toward) the receiver is
   the send itself lost. *)
let resolve_gave_up t ex ~at =
  if not ex.ex_resolved then begin
    ex.ex_resolved <- true;
    ex.ex_timer <- None;
    exchange_resolved t ~at;
    unconfirmed t ex.ex_src ~at;
    if (not ex.ex_arrived) && ex.ex_in_flight = 0 then begin
      t.stats.gave_up <- t.stats.gave_up + 1;
      Executor.lose_now t.exec ~receiver:ex.ex_dst ~root:ex.ex_root
    end;
    observe t
      (Exchange_gave_up { src = ex.ex_src; dst = ex.ex_dst; seq = ex.ex_seq; at })
  end

let rec send_attempt t ex ~at ~attempt =
  if attempt > 0 then
    t.stats.retransmissions <- t.stats.retransmissions + 1;
  (match
     Link.send ex.ex_link ~time:at ~src:ex.ex_src ~dst:ex.ex_dst
       ~root:ex.ex_root
   with
  | Link.Drop _ -> ()
  | Link.Deliver { arrival; packet = _ } -> schedule_copy t ex ~arrival
  | Link.Deliver_dup { arrivals = a1, a2; packet = _ } ->
      (* an injected duplicate: both copies fly; the replay is squashed
         at the receiver by (src, seq) *)
      schedule_copy t ex ~arrival:a1;
      schedule_copy t ex ~arrival:a2);
  (* Arm the timer that drives the rest of the exchange: the next
     retransmission, or — after the final attempt — the give-up
     timeout. Nominal times accumulate [at +. wait] so the schedule
     (and hence {!worst_case_latency}) is independent of the step
     quantization at which timers actually fire. *)
  let wait =
    rto ex.ex_cfg ~attempt
    +. Pte_util.Rng.uniform ex.ex_rng ~lo:0.0 ~hi:ex.ex_cfg.jitter
  in
  let due = at +. wait in
  let token =
    Executor.schedule t.exec ~owner:ex.ex_src ~at:due (fun _ ->
        ex.ex_timer <- None;
        if not ex.ex_resolved then
          if attempt < ex.ex_cfg.max_retries then begin
            (* this timer firing means the attempt went unacknowledged:
               a per-attempt loss sample for the channel estimator (the
               exchange itself is still live, so the watchdog counter
               does not move) *)
            adapt_outcome t ~confirmed:false ~at:due;
            send_attempt t ex ~at:due ~attempt:(attempt + 1)
          end
          else resolve_gave_up t ex ~at:due)
  in
  ex.ex_timer <- Some token

and schedule_copy t ex ~arrival =
  ex.ex_in_flight <- ex.ex_in_flight + 1;
  ignore
    (Executor.schedule t.exec ~owner:ex.ex_dst ~at:arrival (fun _ ->
         receive t ex ~arrival))

(* A data copy reaches the receiver: dedup by the end-to-end seq, hand
   the first fresh copy to the automaton, and acknowledge every copy on
   the reverse link (the previous ACK may be the one that got lost). *)
and receive t ex ~arrival =
  ex.ex_in_flight <- ex.ex_in_flight - 1;
  if fresh t ~src:ex.ex_src ~dst:ex.ex_dst ~seq:ex.ex_seq then begin
    ex.ex_arrived <- true;
    t.stats.delivered <- t.stats.delivered + 1;
    record_latency t (arrival -. ex.ex_sent_at);
    ignore (Executor.deliver_now t.exec ~receiver:ex.ex_dst ~root:ex.ex_root);
    observe t
      (Exchange_delivered
         { src = ex.ex_src; dst = ex.ex_dst; seq = ex.ex_seq;
           sent_at = ex.ex_sent_at; arrival })
  end
  else t.stats.dups_suppressed <- t.stats.dups_suppressed + 1;
  t.stats.acks_sent <- t.stats.acks_sent + 1;
  match ex.ex_ack_link with
  | None ->
      (* no radio reverse path: treat the ACK as wired *)
      resolve_confirmed t ex ~at:arrival
  | Some back -> (
      match
        Link.send back ~time:arrival ~src:ex.ex_dst ~dst:ex.ex_src
          ~root:(ack_root ex.ex_root)
      with
      | Link.Drop _ -> t.stats.acks_lost <- t.stats.acks_lost + 1
      | Link.Deliver { arrival = ack_at; packet = _ }
      | Link.Deliver_dup { arrivals = ack_at, _; packet = _ } ->
          ignore
            (Executor.schedule t.exec ~owner:ex.ex_src ~at:ack_at (fun _ ->
                 resolve_confirmed t ex ~at:ack_at)))

let reliable_send t cfg link ~time ~sender ~receiver ~root =
  t.stats.data_sends <- t.stats.data_sends + 1;
  t.inflight_exchanges <- t.inflight_exchanges + 1;
  let seq = flow_seq t ~src:sender ~dst:receiver in
  let ex =
    {
      ex_cfg = cfg;
      ex_link = link;
      ex_ack_link = Star.link_for t.star ~sender:receiver ~receiver:sender;
      ex_src = sender;
      ex_dst = receiver;
      ex_root = root;
      ex_seq = seq;
      ex_rng =
        Pte_util.Rng.keyed t.rng
          ~key:(Int64.of_int (Hashtbl.hash (sender, receiver, seq)));
      ex_sent_at = time;
      ex_timer = None;
      ex_arrived = false;
      ex_in_flight = 0;
      ex_resolved = false;
    }
  in
  send_attempt t ex ~at:time ~attempt:0;
  Executor.Deferred

(* ------------------------------------------------------------------ *)
(* `Scheduled mode: time-triggered blind transmission (TTW-style)      *)
(* ------------------------------------------------------------------ *)

let sched_link_state t ~sender ~receiver =
  match Hashtbl.find_opt t.sched_links (sender, receiver) with
  | Some st -> st
  | None ->
      let st = { next_free = 0.0; inflight = 0 } in
      Hashtbl.add t.sched_links (sender, receiver) st;
      st

(* One admitted time-triggered send. All timers are armed up front at
   admission: the [1 + retries] blind copies hit the channel at the
   link's slot start in consecutive rounds (no ACKs, no cancellation —
   the channel decides per copy), and one resolution timer fires
   strictly after the last copy can land ([2 *. slot_len] past the last
   slot start; arrivals stay within one [slot_len] of their slot start
   because synthesis forces [slot_len >= worst frame delay]).

   Admission control makes the latency bound closed-form: the link
   keeps [next_free], the end of the last reservation's span, and books
   each new send at the first slot after [max time next_free]; at most
   [depth] sends may hold reservations at once, later ones are rejected
   at admission and counted as lost (the protocol layer above already
   tolerates message loss). By induction over the reservation chain a
   send admitted at [time] with [j < depth] reservations pending has
   [next_free' <= time + (j + 1) * ((retries + 1) * period + slot_len)],
   and its last copy lands by [next_free'] — which is exactly
   {!Schedule.link_worst_case_latency} at [j = depth - 1]. *)
type sched_send = {
  ss_link : Link.t;
  ss_src : string;
  ss_dst : string;
  ss_root : string;
  ss_seq : int;
  ss_sent_at : float;
  mutable ss_arrived : bool;  (* a fresh copy reached the automaton *)
}

let sched_receive t ss ~arrival =
  if fresh t ~src:ss.ss_src ~dst:ss.ss_dst ~seq:ss.ss_seq then begin
    ss.ss_arrived <- true;
    t.stats.delivered <- t.stats.delivered + 1;
    record_latency t (arrival -. ss.ss_sent_at);
    ignore (Executor.deliver_now t.exec ~receiver:ss.ss_dst ~root:ss.ss_root);
    observe t
      (Exchange_delivered
         { src = ss.ss_src; dst = ss.ss_dst; seq = ss.ss_seq;
           sent_at = ss.ss_sent_at; arrival })
  end
  else t.stats.dups_suppressed <- t.stats.dups_suppressed + 1

(* Each blind copy's fate is one estimator sample (the oracle view the
   simulation affords — the same instant-of-knowledge convention `Bare
   mode uses at the send), so the estimate keeps tracking the channel
   while the span-level residual failure rate sits near zero. *)
let sched_copy t ss ~at ~copy =
  if copy > 0 then t.stats.retransmissions <- t.stats.retransmissions + 1;
  match
    Link.send ss.ss_link ~time:at ~src:ss.ss_src ~dst:ss.ss_dst
      ~root:ss.ss_root
  with
  | Link.Drop _ -> adapt_outcome t ~confirmed:false ~at
  | Link.Deliver { arrival; packet = _ } ->
      adapt_outcome t ~confirmed:true ~at;
      ignore
        (Executor.schedule t.exec ~owner:ss.ss_dst ~at:arrival (fun _ ->
             sched_receive t ss ~arrival))
  | Link.Deliver_dup { arrivals = a1, a2; packet = _ } ->
      (* an injected duplicate: both copies fly; the replay is squashed
         at the receiver by (src, seq) *)
      adapt_outcome t ~confirmed:true ~at;
      List.iter
        (fun arrival ->
          ignore
            (Executor.schedule t.exec ~owner:ss.ss_dst ~at:arrival (fun _ ->
                 sched_receive t ss ~arrival)))
        [ a1; a2 ]

(* The blind span is over: the sender learns the outcome. There is no
   feedback channel, so "confirmed" is the oracle view the simulation
   affords (a copy reached the receiver) — the same instant-of-knowledge
   convention `Bare mode uses at the send. *)
let sched_resolve t ss st ~at =
  st.inflight <- st.inflight - 1;
  exchange_resolved t ~at;
  (* the copies already fed the estimator one sample each from
     [sched_copy]; the span outcome moves only the watchdog counter *)
  if ss.ss_arrived then begin
    consec_confirm t ss.ss_src;
    observe t
      (Exchange_confirmed
         { src = ss.ss_src; dst = ss.ss_dst; seq = ss.ss_seq; at })
  end
  else begin
    consec_unconfirmed t ss.ss_src;
    t.stats.gave_up <- t.stats.gave_up + 1;
    Executor.lose_now t.exec ~receiver:ss.ss_dst ~root:ss.ss_root;
    observe t
      (Exchange_gave_up
         { src = ss.ss_src; dst = ss.ss_dst; seq = ss.ss_seq; at })
  end

let scheduled_send t sched index link ~time ~sender ~receiver ~root =
  t.stats.data_sends <- t.stats.data_sends + 1;
  match Schedule.find_indexed index ~src:sender ~dst:receiver with
  | None ->
      (* every star link is scheduled at synthesis; unreachable unless
         the topology grew after creation — fail as a plain loss *)
      consec_unconfirmed t sender;
      t.stats.gave_up <- t.stats.gave_up + 1;
      Executor.Lose
  | Some entry ->
      let st = sched_link_state t ~sender ~receiver in
      if st.inflight >= sched.Schedule.depth then begin
        (* admission bound hit: rejecting now is what keeps the latency
           bound sound for the sends already holding reservations; no
           estimator sample — a full queue says nothing about the
           channel *)
        consec_unconfirmed t sender;
        t.stats.gave_up <- t.stats.gave_up + 1;
        Executor.Lose
      end
      else begin
        st.inflight <- st.inflight + 1;
        t.inflight_exchanges <- t.inflight_exchanges + 1;
        let period = Schedule.period sched in
        let first =
          Schedule.slot_start sched entry ~after:(Float.max time st.next_free)
        in
        let span = (Float.of_int entry.Schedule.retries *. period) in
        st.next_free <- first +. span +. sched.Schedule.slot_len;
        let ss =
          {
            ss_link = link;
            ss_src = sender;
            ss_dst = receiver;
            ss_root = root;
            ss_seq = flow_seq t ~src:sender ~dst:receiver;
            ss_sent_at = time;
            ss_arrived = false;
          }
        in
        for copy = 0 to entry.Schedule.retries do
          let at = first +. (Float.of_int copy *. period) in
          ignore
            (Executor.schedule t.exec ~owner:sender ~at (fun _ ->
                 sched_copy t ss ~at ~copy))
        done;
        let resolve_at = first +. span +. (2.0 *. sched.Schedule.slot_len) in
        ignore
          (Executor.schedule t.exec ~owner:sender ~at:resolve_at (fun _ ->
               sched_resolve t ss st ~at:resolve_at));
        Executor.Deferred
      end

(* ------------------------------------------------------------------ *)
(* The executor hook                                                   *)
(* ------------------------------------------------------------------ *)

let router t : Executor.router =
 fun ~time ~sender ~root ~receiver ->
  match hop t ~sender ~receiver with
  | Wired -> Executor.Deliver 0.0
  | No_route -> Executor.Lose
  | Radio link -> (
      match live t with
      | Bare -> bare_send t link ~time ~sender ~receiver ~root
      | Reliable cfg -> reliable_send t cfg link ~time ~sender ~receiver ~root
      | Scheduled { sched; index } ->
          scheduled_send t sched index link ~time ~sender ~receiver ~root)

(* ------------------------------------------------------------------ *)
(* CLI spec parsing                                                    *)
(* ------------------------------------------------------------------ *)

let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

(* A spec-string key and how its value updates one mode's
   configuration. *)
type 'a key = string * (string -> 'a -> ('a, string) result)

let value what parse k set : 'a key =
  ( k,
    fun v acc ->
      match parse v with
      | Some x -> Ok (set acc x)
      | None -> fail "transport: %s expects %s, got %S" k what v )

let num k = value "a number" float_of_string_opt k
let int k = value "an integer" int_of_string_opt k

let reliable_keys : config key list =
  [ int "retries" (fun c n -> { c with max_retries = n });
    num "rto" (fun c f -> { c with base_rto = f });
    num "multiplier" (fun c f -> { c with multiplier = f });
    num "cap" (fun c f -> { c with cap = f });
    num "jitter" (fun c f -> { c with jitter = f }) ]

let scheduled_keys : Pte_sched.Synth.policy key list =
  [ num "slot" (fun p f -> { p with Pte_sched.Synth.slot_len = Some f });
    int "retries" (fun p n -> { p with Pte_sched.Synth.retries = Some n });
    num "loss" (fun p f -> { p with Pte_sched.Synth.loss = f });
    num "confidence" (fun p f -> { p with Pte_sched.Synth.confidence = f });
    int "depth" (fun p n -> { p with Pte_sched.Synth.depth = n });
    num "budget" (fun p f -> { p with Pte_sched.Synth.budget = Some f }) ]

let adaptive_keys : adaptive_config key list =
  let policy a set = { a with policy = set a.policy } in
  let estimator a set = { a with estimator = set a.estimator } in
  [ ( "healthy",
      fun v a ->
        match v with
        | "bare" -> Ok { a with healthy = `Bare }
        | "reliable" -> Ok { a with healthy = `Reliable default_config }
        | _ -> fail "transport: healthy expects bare or reliable, got %S" v );
    num "degrade" (fun a f ->
        policy a (fun p -> { p with Pte_adapt.Policy.degrade_above = f }));
    num "recover" (fun a f ->
        policy a (fun p -> { p with Pte_adapt.Policy.recover_below = f }));
    num "dwell" (fun a f ->
        policy a (fun p -> { p with Pte_adapt.Policy.min_dwell = f }));
    int "samples" (fun a n ->
        policy a (fun p -> { p with Pte_adapt.Policy.min_samples = n }));
    int "window" (fun a n ->
        estimator a (fun e -> { e with Pte_adapt.Estimator.window = n }));
    int "burst" (fun a n ->
        estimator a (fun e -> { e with Pte_adapt.Estimator.burst_k = n }));
    num "budget" (fun a f -> { a with budget = Some f }) ]

(* Fold a comma-separated [key=value] list over [init], stopping at the
   first bad field. *)
let parse_fields (keys : 'a key list) init spec =
  List.fold_left
    (fun acc kv ->
      Result.bind acc (fun acc ->
          match String.index_opt kv '=' with
          | None -> fail "transport: expected key=value, got %S" kv
          | Some i -> (
              let k = String.sub kv 0 i in
              let v = String.sub kv (i + 1) (String.length kv - i - 1) in
              match List.assoc_opt k keys with
              | Some set -> set v acc
              | None ->
                  fail "transport: unknown key %S (expected %s)" k
                    (String.concat "|" (List.map fst keys)))))
    (Ok init)
    (String.split_on_char ',' spec)

let mode_of_string s =
  let head, spec =
    match String.index_opt s ':' with
    | None -> (s, None)
    | Some i ->
        let rest = String.sub s (i + 1) (String.length s - i - 1) in
        (String.sub s 0 i, Some rest)
  in
  let fields keys init =
    match spec with None -> Ok init | Some spec -> parse_fields keys init spec
  in
  let ( let* ) = Result.bind in
  match head with
  | "bare" when spec = None -> Ok `Bare
  | "reliable" ->
      let* cfg = fields reliable_keys default_config in
      let* () = validate cfg in
      Ok (`Reliable cfg)
  | "scheduled" ->
      let* p = fields scheduled_keys Pte_sched.Synth.default_policy in
      Ok (`Scheduled p)
  | "adaptive" ->
      let* a = fields adaptive_keys default_adaptive in
      let* () = validate_adaptive a in
      Ok (`Adaptive a)
  | _ ->
      fail
        "unknown transport %S (expected bare, reliable[:k=v,...], \
         scheduled[:k=v,...] or adaptive[:k=v,...])"
        head

let pp_config ppf c =
  Fmt.pf ppf "retries:%d rto:%gs x%g cap:%gs jitter:%gs" c.max_retries
    c.base_rto c.multiplier c.cap c.jitter

let pp_mode ppf = function
  | `Bare -> Fmt.string ppf "bare"
  | `Reliable c ->
      Fmt.pf ppf "reliable:retries=%d,rto=%g,multiplier=%g,cap=%g,jitter=%g"
        c.max_retries c.base_rto c.multiplier c.cap c.jitter
  | `Scheduled (p : Pte_sched.Synth.policy) ->
      let opt key pp ppf = function
        | None -> ()
        | Some v -> Fmt.pf ppf ",%s=%a" key pp v
      in
      Fmt.pf ppf "scheduled:loss=%g,confidence=%g,depth=%d%a%a%a" p.loss
        p.confidence p.depth
        (opt "slot" Fmt.float)
        p.slot_len
        (opt "retries" Fmt.int)
        p.retries
        (opt "budget" Fmt.float)
        p.budget
  | `Adaptive (a : adaptive_config) ->
      Fmt.pf ppf "adaptive:healthy=%s,degrade=%g,recover=%g,dwell=%g%a"
        (match a.healthy with `Bare -> "bare" | `Reliable _ -> "reliable")
        a.policy.Pte_adapt.Policy.degrade_above
        a.policy.Pte_adapt.Policy.recover_below
        a.policy.Pte_adapt.Policy.min_dwell
        (fun ppf -> function
          | None -> ()
          | Some b -> Fmt.pf ppf ",budget=%g" b)
        a.budget

(* The one `--transport` converter every CLI shares: adding a mode (or
   rewording an error) lands in every binary at once. *)
let conv =
  Cmdliner.Arg.conv ~docv:"MODE"
    ( (fun s ->
        match mode_of_string s with
        | Ok m -> Ok m
        | Error msg -> Error (`Msg msg)),
      pp_mode )

let pp_stats ppf s =
  Fmt.pf ppf
    "sends:%d delivered:%d gave-up:%d retx:%d acks:%d acks-lost:%d dups:%d"
    s.data_sends s.delivered s.gave_up s.retransmissions s.acks_sent
    s.acks_lost s.dups_suppressed;
  (* switch counters only exist in `Adaptive mode; printing them only
     when set keeps the legacy render byte-identical *)
  if s.switches_up + s.switches_down + s.switch_refusals > 0 then
    Fmt.pf ppf " switches-up:%d switches-down:%d switch-refusals:%d"
      s.switches_up s.switches_down s.switch_refusals
