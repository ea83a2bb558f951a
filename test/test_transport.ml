(* The reliable-delivery transport: backoff schedule, worst-case latency
   bound, duplicate suppression (bare and reliable), ACK-loss behavior,
   the consecutive-loss counter behind degraded-safe-mode, and the
   end-to-end blackout scenario where the supervisor rides the lease
   self-reset down to all-safe. *)

open Pte_net
module Transport = Pte_net.Transport
module Rng = Pte_util.Rng
module Emulation = Pte_tracheotomy.Emulation
module Trial = Pte_tracheotomy.Trial
module Plan = Pte_faults.Plan
module Exec = Pte_hybrid.Executor
module HA = Pte_hybrid.Automaton
module HL = Pte_hybrid.Location
module HE = Pte_hybrid.Edge
module HLb = Pte_hybrid.Label
module HS = Pte_hybrid.System

let mk_star ?(loss = Loss.Perfect) ?(seed = 1) () =
  Star.create ~base:"base" ~remotes:[ "r1"; "r2" ] ~loss_kind:loss
    ~rng:(Rng.create seed) ()

let uplink star remote =
  match Star.link_for star ~sender:remote ~receiver:"base" with
  | Some l -> l
  | None -> Alcotest.failf "no uplink for %s" remote

let downlink star remote =
  match Star.link_for star ~sender:"base" ~receiver:remote with
  | Some l -> l
  | None -> Alcotest.failf "no downlink for %s" remote

(* A transport whose router the test calls directly. Its executor is
   never run, so an empty system serves. *)
let create_direct ~mode ~rng star =
  Transport.create ~mode ~rng
    ~exec:(Exec.create (HS.make ~name:"direct" []))
    star

(* ---- policy arithmetic ---- *)

let test_rto_schedule () =
  let c = Transport.default_config in
  Alcotest.(check (float 1e-9)) "rto 0" 0.25 (Transport.rto c ~attempt:0);
  Alcotest.(check (float 1e-9)) "rto 1" 0.5 (Transport.rto c ~attempt:1);
  Alcotest.(check (float 1e-9)) "rto 2" 1.0 (Transport.rto c ~attempt:2);
  Alcotest.(check (float 1e-9)) "rto 3 hits the cap" 2.0
    (Transport.rto c ~attempt:3);
  Alcotest.(check (float 1e-9)) "rto 4 stays capped" 2.0
    (Transport.rto c ~attempt:4);
  Alcotest.(check int) "max attempts" 4 (Transport.max_attempts c)

let test_worst_case_latency () =
  let c = Transport.default_config in
  (* sum_{k<3} (rto k + jitter) + frame = 1.75 + 0.15 + 0.03 *)
  Alcotest.(check (float 1e-9)) "default worst case" 1.93
    (Transport.worst_case_latency c ~frame_delay:0.03);
  Alcotest.(check (float 1e-9)) "no retries = one frame in the air" 0.03
    (Transport.worst_case_latency { c with Transport.max_retries = 0 }
       ~frame_delay:0.03)

(* Past the backoff cap the bound adds its tail in one step: below the
   cap it is the per-retry sum bit for bit, and max_int retries return
   at once. *)
let test_worst_case_latency_tail () =
  let per_retry (c : Transport.config) =
    let acc = ref 0.0 in
    for k = 0 to c.Transport.max_retries - 1 do
      acc := !acc +. Transport.rto c ~attempt:k +. c.Transport.jitter
    done;
    !acc +. 0.03
  in
  let d = Transport.default_config in
  List.iter
    (fun (c : Transport.config) ->
      Alcotest.(check int64)
        (Fmt.str "uncapped %a" Transport.pp_config c)
        (Int64.bits_of_float (per_retry c))
        (Int64.bits_of_float (Transport.worst_case_latency c ~frame_delay:0.03)))
    Transport.
      [ d; { d with max_retries = 0 }; { d with max_retries = 1 };
        { d with base_rto = 0.1; multiplier = 1.5; cap = 60.0; max_retries = 9 };
        { d with multiplier = 1.0; cap = 1.0; max_retries = 50 } ];
  Alcotest.(check (float 1e-9)) "capped tail = per-retry sum"
    (per_retry { d with Transport.max_retries = 40 })
    (Transport.worst_case_latency { d with Transport.max_retries = 40 }
       ~frame_delay:0.03);
  let huge =
    Transport.worst_case_latency { d with Transport.max_retries = max_int }
      ~frame_delay:0.03
  in
  Alcotest.(check bool) "max_int retries: finite, past every budget" true
    (Float.is_finite huge && huge > 1e18)

let test_validate () =
  let ok c = Result.is_ok (Transport.validate c) in
  let d = Transport.default_config in
  Alcotest.(check bool) "default valid" true (ok d);
  Alcotest.(check bool) "negative retries" false
    (ok { d with Transport.max_retries = -1 });
  Alcotest.(check bool) "zero rto" false (ok { d with Transport.base_rto = 0.0 });
  Alcotest.(check bool) "shrinking backoff" false
    (ok { d with Transport.multiplier = 0.5 });
  Alcotest.(check bool) "cap below rto" false
    (ok { d with Transport.cap = 0.1 });
  Alcotest.(check bool) "negative jitter" false
    (ok { d with Transport.jitter = -0.01 });
  Alcotest.(check bool) "NaN jitter" false
    (ok { d with Transport.jitter = Float.nan });
  Alcotest.(check bool) "NaN multiplier" false
    (ok { d with Transport.multiplier = Float.nan });
  Alcotest.(check bool) "NaN cap" false
    (ok { d with Transport.cap = Float.nan });
  Alcotest.(check bool) "infinite rto and cap" false
    (ok { d with Transport.base_rto = Float.infinity; cap = Float.infinity })

(* ---- bare mode: injected duplicates are suppressed at the receiver ---- *)

let test_bare_dup_suppression () =
  let star = mk_star () in
  Link.set_injector (uplink star "r1")
    (Some (fun ~time:_ ~root:_ -> Link.Duplicate_frame));
  let t = create_direct ~mode:`Bare ~rng:(Rng.create 2) star in
  let router = Transport.router t in
  for i = 0 to 4 do
    match router ~time:(float_of_int i) ~sender:"r1" ~root:"evt" ~receiver:"base" with
    | Pte_hybrid.Executor.Deliver d when d >= 0.0 -> ()
    | _ -> Alcotest.failf "send %d: expected a single delivery" i
  done;
  let s = Transport.stats t in
  Alcotest.(check int) "all sends counted" 5 s.Transport.data_sends;
  Alcotest.(check int) "each delivered once" 5 s.Transport.delivered;
  Alcotest.(check int) "each replay squashed" 5 s.Transport.dups_suppressed

(* ---- event-driven harness ----

   Reliable exchanges run on the executor's timeline, so the tests build
   a minimal hybrid system over the star: a kick-driven sender automaton
   named after a star node emits "evt" whenever the test injects "kick",
   and the peer node listens. Exchange milestones are observed through
   {!Transport.set_observer}. *)

let kick_sender name =
  HA.make ~name ~vars:[]
    ~locations:[ HL.make "Idle"; HL.make "Arm" ]
    ~edges:
      [ HE.make ~label:(HLb.Recv "kick") ~src:"Idle" ~dst:"Arm" ();
        HE.make ~label:(HLb.Send "evt") ~src:"Arm" ~dst:"Idle" () ]
    ~initial_location:"Idle" ()

let evt_listener name =
  HA.make ~name ~vars:[]
    ~locations:[ HL.make "Wait" ]
    ~edges:[ HE.make ~label:(HLb.Recv_lossy "evt") ~src:"Wait" ~dst:"Wait" () ]
    ~initial_location:"Wait" ()

let ev_harness ?(dt = 0.01) ~star ~mode ~rng_seed ~sender ~receiver () =
  let system =
    HS.make ~name:"arq-harness" [ kick_sender sender; evt_listener receiver ]
  in
  let exec =
    Exec.create ~config:{ Exec.default_config with Exec.dt } system
  in
  let t = Transport.create ~mode ~rng:(Rng.create rng_seed) ~exec star in
  Exec.set_router exec (Transport.router t);
  (exec, t)

let kick_at exec ~sender times ~settle =
  List.iter
    (fun at ->
      Exec.run exec ~until:at;
      ignore (Exec.inject exec ~receiver:sender ~root:"kick"))
    times;
  Exec.run exec ~until:settle

(* ---- reliable mode: retransmission recovers a lossy channel ---- *)

let test_reliable_recovers_losses () =
  let cfg = Transport.default_config in
  let star = mk_star ~loss:(Loss.Bernoulli 0.5) ~seed:3 () in
  let bound =
    Transport.worst_case_latency cfg ~frame_delay:(Star.worst_frame_delay star)
  in
  let exec, t =
    ev_harness ~star ~mode:(`Reliable cfg) ~rng_seed:4 ~sender:"r1"
      ~receiver:"base" ()
  in
  let delivered = ref 0 in
  Transport.set_observer t (function
    | Transport.Exchange_delivered { sent_at; arrival; _ } ->
        incr delivered;
        if arrival -. sent_at > bound +. 1e-9 then
          Alcotest.failf "latency %g exceeds the closed-form bound %g"
            (arrival -. sent_at) bound
    | _ -> ());
  let n = 300 in
  kick_at exec ~sender:"r1"
    (List.init n float_of_int)
    ~settle:(float_of_int n +. 10.0);
  (* 4 attempts against p=0.5 drops: P(delivered) = 1 - 0.5^4 ~ 0.94,
     versus ~0.5 bare; anything above 0.8 means ARQ is really working *)
  let fraction = float_of_int !delivered /. float_of_int n in
  if fraction < 0.8 then
    Alcotest.failf "delivery fraction %.2f: retransmission not effective"
      fraction;
  let s = Transport.stats t in
  Alcotest.(check int) "stats agree with the observer" !delivered
    s.Transport.delivered;
  Alcotest.(check int) "every send resolved exactly once" n
    (s.Transport.delivered + s.Transport.gave_up);
  Alcotest.(check bool) "retransmissions happened" true
    (s.Transport.retransmissions > 0)

let test_consecutive_losses_and_reset () =
  let star = mk_star ~loss:(Loss.Bernoulli 1.0) ~seed:5 () in
  let exec, t =
    ev_harness ~star ~mode:(`Reliable Transport.default_config) ~rng_seed:6
      ~sender:"base" ~receiver:"r1" ()
  in
  List.iter
    (fun at ->
      Exec.run exec ~until:at;
      ignore (Exec.inject exec ~receiver:"base" ~root:"kick"))
    [ 1.0; 2.0; 3.0 ];
  (* losses register at confirmation time: the first send's give-up
     timeout cannot expire before 1 + rto(0..3) = 4.75 s *)
  Exec.run exec ~until:4.5;
  Alcotest.(check int) "nothing known before the first timeout" 0
    (Transport.consecutive_losses t ~sender:"base");
  Exec.run exec ~until:8.0;
  Alcotest.(check int) "all three known after their timeouts" 3
    (Transport.consecutive_losses t ~sender:"base");
  Alcotest.(check int) "all gave up" 3 (Transport.stats t).Transport.gave_up;
  Alcotest.(check int) "other senders unaffected" 0
    (Transport.consecutive_losses t ~sender:"r1");
  Transport.reset_consecutive_losses t ~sender:"base";
  Alcotest.(check int) "reset" 0 (Transport.consecutive_losses t ~sender:"base")

(* ---- adversarial ACK killer: data flows, feedback does not ---- *)

let test_ack_killer () =
  let cfg = Transport.default_config in
  let star = mk_star () in
  (* data goes r1 -> base on the uplink; ACKs come back on r1's
     downlink under the "ack:" root prefix — kill exactly those *)
  Link.set_injector (downlink star "r1")
    (Some
       (fun ~time:_ ~root ->
         if String.length root >= 4 && String.sub root 0 4 = "ack:" then
           Link.Drop_frame
         else Link.Pass));
  let exec, t =
    ev_harness ~star ~mode:(`Reliable cfg) ~rng_seed:7 ~sender:"r1"
      ~receiver:"base" ()
  in
  ignore (Exec.inject exec ~receiver:"r1" ~root:"kick");
  Exec.run exec ~until:10.0;
  let s = Transport.stats t in
  Alcotest.(check int) "the data arrived: nothing gave up" 0
    s.Transport.gave_up;
  Alcotest.(check int) "one application send" 1 s.Transport.data_sends;
  Alcotest.(check int) "delivered despite deaf sender" 1 s.Transport.delivered;
  Alcotest.(check int) "full retry budget spent" cfg.Transport.max_retries
    s.Transport.retransmissions;
  Alcotest.(check int) "receiver squashed every retransmission"
    cfg.Transport.max_retries s.Transport.dups_suppressed;
  Alcotest.(check int) "one ACK per copy"
    (cfg.Transport.max_retries + 1)
    s.Transport.acks_sent;
  Alcotest.(check int) "every ACK lost"
    (cfg.Transport.max_retries + 1)
    s.Transport.acks_lost;
  (* the sender never saw feedback: this is a consecutive loss even
     though the data arrived — exactly the degraded-mode trigger *)
  Alcotest.(check int) "counts as a feedback loss" 1
    (Transport.consecutive_losses t ~sender:"r1")

(* ---- tentpole: the ACK revokes the in-flight retransmission timer ---- *)

let test_ack_cancels_pending_retransmission () =
  let cfg = Transport.default_config in
  let star = mk_star () in
  let exec, t =
    ev_harness ~star ~mode:(`Reliable cfg) ~rng_seed:8 ~sender:"r1"
      ~receiver:"base" ()
  in
  let confirmed = ref [] in
  let gave_up = ref 0 in
  Transport.set_observer t (function
    | Transport.Exchange_confirmed { seq; at; _ } ->
        confirmed := (seq, at) :: !confirmed
    | Transport.Exchange_gave_up _ -> incr gave_up
    | Transport.Exchange_delivered _ -> ());
  ignore (Exec.inject exec ~receiver:"r1" ~root:"kick");
  (* every attempt arms a timer before its ACK can land; run far past
     every backoff — a timer that survived the ACK would have fired a
     retransmission or a give-up by then *)
  Exec.run exec ~until:20.0;
  let s = Transport.stats t in
  Alcotest.(check int) "delivered once" 1 s.Transport.delivered;
  (match !confirmed with
  | [ (0, at) ] ->
      Alcotest.(check bool)
        (Fmt.str "confirmed at %.3fs, before the first backoff expires" at)
        true
        (at < Transport.rto cfg ~attempt:0)
  | l ->
      Alcotest.failf "expected exactly one confirmation, got %d"
        (List.length l));
  Alcotest.(check int) "revoked timer never fired: no retransmissions" 0
    s.Transport.retransmissions;
  Alcotest.(check int) "and no give-up" 0 !gave_up;
  Alcotest.(check int) "single ACK" 1 s.Transport.acks_sent;
  Alcotest.(check int) "confirmed: no feedback loss" 0
    (Transport.consecutive_losses t ~sender:"r1")

(* ---- satellite: create validates, and the CLI spec parser agrees ---- *)

let test_create_validates () =
  let star = mk_star () in
  let bad = { Transport.default_config with Transport.jitter = -0.5 } in
  (match create_direct ~mode:(`Reliable bad) ~rng:(Rng.create 1) star with
  | exception Invalid_argument msg ->
      Alcotest.(check string) "carries the validate message"
        "transport: jitter must be >= 0" msg
  | _ -> Alcotest.fail "an ill-formed config must be rejected at create");
  (match Transport.mode_of_string "reliable:jitter=-0.5" with
  | Error msg ->
      Alcotest.(check string) "spec parser gives the same reason"
        "transport: jitter must be >= 0" msg
  | Ok _ -> Alcotest.fail "ill-formed spec must be rejected");
  (match Transport.mode_of_string "reliable:cap=0.1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cap below base_rto must be rejected");
  (match Transport.mode_of_string "reliable:retries=5,rto=0.1" with
  | Ok (`Reliable c) ->
      Alcotest.(check int) "retries parsed" 5 c.Transport.max_retries;
      Alcotest.(check (float 1e-9)) "rto parsed" 0.1 c.Transport.base_rto
  | _ -> Alcotest.fail "well-formed spec must parse");
  match Transport.mode_of_string "bare" with
  | Ok `Bare -> ()
  | _ -> Alcotest.fail "bare must parse"

(* ---- scheduled mode: blind TDMA copies deliver within the
        synthesized bound, with no feedback channel at all ---- *)

let test_scheduled_within_bound () =
  let star = mk_star ~loss:(Loss.Bernoulli 0.4) ~seed:13 () in
  let exec, t =
    ev_harness ~star
      ~mode:(`Scheduled Pte_sched.Synth.default_policy)
      ~rng_seed:14 ~sender:"r1" ~receiver:"base" ()
  in
  let sched =
    match Transport.schedule t with
    | Some s -> s
    | None -> Alcotest.fail "scheduled mode must expose its schedule"
  in
  let bound = Pte_sched.Schedule.worst_case_latency sched in
  let delivered = ref 0 in
  Transport.set_observer t (function
    | Transport.Exchange_delivered { sent_at; arrival; _ } ->
        incr delivered;
        if arrival -. sent_at > bound +. 1e-9 then
          Alcotest.failf "latency %g exceeds the schedule bound %g"
            (arrival -. sent_at) bound
    | _ -> ());
  let n = 200 in
  kick_at exec ~sender:"r1"
    (List.init n float_of_int)
    ~settle:(float_of_int n +. 10.0);
  (* 4 blind copies against p=0.4: P(delivered) = 1 - 0.4^4 ~ 0.97 *)
  let fraction = float_of_int !delivered /. float_of_int n in
  if fraction < 0.85 then
    Alcotest.failf "delivery fraction %.2f: blind retransmission not working"
      fraction;
  let s = Transport.stats t in
  Alcotest.(check int) "stats agree with the observer" !delivered
    s.Transport.delivered;
  Alcotest.(check int) "every send resolved exactly once" n
    (s.Transport.delivered + s.Transport.gave_up);
  Alcotest.(check int) "no feedback frames in a blind mode" 0
    s.Transport.acks_sent;
  Alcotest.(check bool) "extra copies flew" true
    (s.Transport.retransmissions > 0);
  Alcotest.(check bool) "duplicate copies squashed at the receiver" true
    (s.Transport.dups_suppressed > 0)

let test_scheduled_admission_depth () =
  (* a perfect channel, but sends arriving faster than the round can
     drain them: the depth bound must reject the overflow at admission
     rather than stretch the latency past the closed form *)
  let star = mk_star () in
  let exec, t =
    ev_harness ~star
      ~mode:
        (`Scheduled { Pte_sched.Synth.default_policy with Pte_sched.Synth.depth = 1 })
      ~rng_seed:15 ~sender:"r1" ~receiver:"base" ()
  in
  let sched =
    match Transport.schedule t with
    | Some s -> s
    | None -> Alcotest.fail "schedule exposed"
  in
  let bound = Pte_sched.Schedule.worst_case_latency sched in
  Transport.set_observer t (function
    | Transport.Exchange_delivered { sent_at; arrival; _ } ->
        if arrival -. sent_at > bound +. 1e-9 then
          Alcotest.failf "admitted send late: %g > %g" (arrival -. sent_at)
            bound
    | _ -> ());
  (* burst of 5 sends in one dt step; depth 1 admits only what fits *)
  for _ = 1 to 5 do
    ignore (Exec.inject exec ~receiver:"r1" ~root:"kick")
  done;
  Exec.run exec ~until:10.0;
  let s = Transport.stats t in
  Alcotest.(check int) "burst counted" 5 s.Transport.data_sends;
  Alcotest.(check bool) "overflow rejected at admission" true
    (s.Transport.gave_up > 0);
  Alcotest.(check int) "admitted + rejected = sends" 5
    (s.Transport.delivered + s.Transport.gave_up)

let test_scheduled_spec_parsing () =
  (match Transport.mode_of_string "scheduled" with
  | Ok (`Scheduled p) ->
      Alcotest.(check bool) "defaults" true (p = Pte_sched.Synth.default_policy)
  | _ -> Alcotest.fail "plain scheduled must parse");
  (match
     Transport.mode_of_string
       "scheduled:retries=2,loss=0.1,depth=3,slot=0.05,budget=1.5,confidence=0.9"
   with
  | Ok (`Scheduled p) ->
      Alcotest.(check bool) "retries pinned" true
        (p.Pte_sched.Synth.retries = Some 2);
      Alcotest.(check bool) "slot pinned" true
        (p.Pte_sched.Synth.slot_len = Some 0.05);
      Alcotest.(check bool) "budget pinned" true
        (p.Pte_sched.Synth.budget = Some 1.5);
      Alcotest.(check (float 1e-9)) "loss" 0.1 p.Pte_sched.Synth.loss;
      Alcotest.(check (float 1e-9)) "confidence" 0.9
        p.Pte_sched.Synth.confidence;
      Alcotest.(check int) "depth" 3 p.Pte_sched.Synth.depth
  | _ -> Alcotest.fail "well-formed scheduled spec must parse");
  (match Transport.mode_of_string "scheduled:turbo=1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown scheduled key must be rejected");
  match Transport.mode_of_string "scheduled:loss=1.5" with
  | Ok (`Scheduled p) ->
      (* parse accepts the number; create/synthesize rejects it *)
      let star = mk_star () in
      (match create_direct ~mode:(`Scheduled p) ~rng:(Rng.create 1) star with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "ill-formed policy must be rejected at create")
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unreachable"

(* ---- regression: channel state evolves between attempts ----

   Under the unrolled model a whole exchange resolved against the
   channel synchronously, so a second exchange starting mid-way sampled
   the burst process as if the first had already finished. Event-driven,
   the two exchanges' frames hit the link interleaved in wall-clock
   order. With jitter 0 no RNG enters the transport, so reimplementing
   the unrolled algorithm over an identically-seeded star isolates
   exactly that ordering difference. *)

let bursty =
  Loss.Gilbert_elliott
    { to_bad = 0.4; to_good = 0.2; loss_good = 0.0; loss_bad = 1.0 }

let unrolled_outcomes star cfg ~times =
  let link = uplink star "r1" in
  let back = downlink star "r1" in
  List.map
    (fun time ->
      let rec attempt k ~send_at ~first =
        let next ~first =
          if k >= cfg.Transport.max_retries then first
          else
            attempt (k + 1)
              ~send_at:(send_at +. Transport.rto cfg ~attempt:k)
              ~first
        in
        match
          Link.send link ~time:send_at ~src:"r1" ~dst:"base" ~root:"evt"
        with
        | Link.Drop _ -> next ~first
        | Link.Deliver { arrival; _ }
        | Link.Deliver_dup { arrivals = arrival, _; _ } -> (
            let first =
              match first with None -> Some arrival | s -> s
            in
            match
              Link.send back ~time:arrival ~src:"base" ~dst:"r1"
                ~root:"ack:evt"
            with
            | Link.Deliver _ | Link.Deliver_dup _ -> first
            | Link.Drop _ -> next ~first)
      in
      attempt 0 ~send_at:time ~first:None)
    times

let event_driven_outcomes star cfg ~times =
  let exec, t =
    ev_harness ~star ~mode:(`Reliable cfg) ~rng_seed:1 ~sender:"r1"
      ~receiver:"base" ()
  in
  let arrivals = Hashtbl.create 4 in
  Transport.set_observer t (function
    | Transport.Exchange_delivered { seq; arrival; _ } ->
        Hashtbl.replace arrivals seq arrival
    | _ -> ());
  let last = List.nth times (List.length times - 1) in
  kick_at exec ~sender:"r1" times ~settle:(last +. 12.0);
  List.mapi (fun i _ -> Hashtbl.find_opt arrivals i) times

let test_burst_evolves_between_attempts () =
  let cfg = { Transport.default_config with Transport.jitter = 0.0 } in
  let times = [ 0.0; 0.1 ] in
  let differs seed =
    unrolled_outcomes (mk_star ~loss:bursty ~seed ()) cfg ~times
    <> event_driven_outcomes (mk_star ~loss:bursty ~seed ()) cfg ~times
  in
  Alcotest.(check bool)
    "a burst starting mid-exchange changes the outcome vs the unrolled model"
    true
    (List.exists differs (List.init 30 (fun i -> 100 + i)))

(* ---- property: empirical latency never exceeds the closed form, and
        the Theorem-1 recheck agrees with the budget search ---- *)

let config_gen =
  QCheck.Gen.(
    let* max_retries = int_range 0 4 in
    let* base_rto = float_range 0.05 0.8 in
    let* multiplier = float_range 1.0 3.0 in
    let* extra_cap = float_range 0.0 2.0 in
    let* jitter = float_range 0.0 0.1 in
    return
      {
        Transport.max_retries;
        base_rto;
        multiplier;
        cap = base_rto +. extra_cap;
        jitter;
      })

let config_arbitrary =
  QCheck.make
    ~print:(fun c -> Fmt.str "%a" Transport.pp_config c)
    config_gen

let prop_latency_within_bound =
  QCheck.Test.make ~name:"empirical latency <= worst_case_latency" ~count:25
    config_arbitrary
    (fun cfg ->
      assert (Result.is_ok (Transport.validate cfg));
      let star = mk_star ~loss:(Loss.Bernoulli 0.3) ~seed:11 () in
      let frame_delay = Star.worst_frame_delay star in
      let bound = Transport.worst_case_latency cfg ~frame_delay in
      let exec, t =
        ev_harness ~star ~mode:(`Reliable cfg) ~rng_seed:12 ~sender:"r1"
          ~receiver:"base" ()
      in
      let worst = ref None in
      Transport.set_observer t (function
        | Transport.Exchange_delivered { sent_at; arrival; _ } ->
            let d = arrival -. sent_at in
            if d > bound +. 1e-9 then worst := Some d
        | _ -> ());
      let n = 120 in
      kick_at exec ~sender:"r1"
        (List.init n float_of_int)
        ~settle:(float_of_int n +. 20.0);
      (match !worst with
      | Some d ->
          QCheck.Test.fail_reportf "latency %g > bound %g under %a" d bound
            Transport.pp_config cfg
      | None -> ());
      let s = Transport.stats t in
      if s.Transport.delivered + s.Transport.gave_up <> s.Transport.data_sends
      then
        QCheck.Test.fail_reportf "unbalanced counters (%a) under %a"
          Transport.pp_stats s Transport.pp_config cfg;
      (* the constraint recheck must agree with the budget search,
         except inside a tolerance band around the exact boundary *)
      let params = Pte_core.Params.case_study in
      let budget = Pte_core.Constraints.max_delay_budget params in
      if Float.abs (bound -. budget) < 1e-3 then true
      else
        Pte_core.Constraints.satisfies_with_delay params ~delay:bound
        = (bound < budget))

(* ---- property: bare-mode counters balance under random loss and
        injected duplicates (the bare_send accounting fix) ---- *)

let prop_bare_counter_invariants =
  QCheck.Test.make
    ~name:"bare counters: sends = delivered + gave-up, dups coherent"
    ~count:50
    (QCheck.make
       ~print:(fun (p, d, s) -> Fmt.str "loss=%g dup=%g seed=%d" p d s)
       QCheck.Gen.(
         triple (float_range 0.0 0.9) (float_range 0.0 1.0) (int_range 0 999)))
    (fun (loss_p, dup_p, seed) ->
      let star = mk_star ~loss:(Loss.Bernoulli loss_p) ~seed:(seed + 1) () in
      let dup_rng = Rng.create (seed + 1000) in
      Link.set_injector (uplink star "r1")
        (Some
           (fun ~time:_ ~root:_ ->
             if Rng.bernoulli dup_rng dup_p then Link.Duplicate_frame
             else Link.Pass));
      let t = create_direct ~mode:`Bare ~rng:(Rng.create 2) star in
      let router = Transport.router t in
      let returned = ref 0 in
      let n = 200 in
      for i = 0 to n - 1 do
        match
          router ~time:(float_of_int i) ~sender:"r1" ~root:"evt"
            ~receiver:"base"
        with
        | Pte_hybrid.Executor.Deliver _ -> incr returned
        | _ -> ()
      done;
      let s = Transport.stats t in
      s.Transport.data_sends = n
      && s.Transport.delivered + s.Transport.gave_up = n
      && s.Transport.delivered = !returned
      && s.Transport.dups_suppressed >= 0
      && s.Transport.acks_sent = 0)

(* ---- property: the spec parsers never raise, accept only finite
        reliable configs, and read back what pp_mode prints ---- *)

let spec_gen =
  let open QCheck.Gen in
  let keyed =
    [ ("reliable", [ "retries"; "rto"; "multiplier"; "cap"; "jitter" ]);
      ("scheduled", [ "slot"; "retries"; "loss"; "confidence"; "depth"; "budget" ]);
      ( "adaptive",
        [ "healthy"; "degrade"; "recover"; "dwell"; "samples"; "window";
          "burst"; "budget" ] ) ]
  in
  let others =
    [ "bare"; "perfect"; "wifi"; "bernoulli"; "ge"; "interferer"; "turbo"; "" ]
  in
  let all_keys = "turbo" :: List.concat_map snd keyed in
  let value =
    frequency
      [ (1, oneofl [ "nan"; "-nan"; "inf"; "-inf"; "1e400" ]);
        ( 1,
          oneofl
            [ "0"; "1"; "3"; "-1"; "0.05"; "0.5"; "-0.5"; "2.5"; "bare";
              "reliable"; "" ] ) ]
  in
  (* mostly the head's own keys, so specs get past the first field;
     repeated keys, empty fields and stray '=' ride along *)
  let spec head keys =
    map
      (fun fields -> head ^ ":" ^ String.concat "," fields)
      (list_size (int_range 0 4)
         (frequency
            [ (6, map2 (fun k v -> k ^ "=" ^ v) (oneofl keys) value);
              (1, value);
              (1, oneofl [ "="; "=1"; "rto=1=2" ]) ]))
  in
  let soup =
    map (String.concat "")
      (list_size (int_range 0 8)
         (oneofl
            ([ ":"; ","; "="; "nan"; "inf"; "1e400"; "0.5" ]
            @ List.map fst keyed @ others @ all_keys)))
  in
  (* interferer fields are positional: period,burst,loss_during,loss_idle;
     mostly four of them, mostly in range, so non-finite ones get tested *)
  let interferer =
    let field =
      frequency
        [ (1, oneofl [ "nan"; "inf"; "-inf"; "1e400" ]);
          (3, oneofl [ "0"; "0.5"; "1"; "2.5" ]) ]
    in
    map
      (fun fields -> "interferer:" ^ String.concat "," fields)
      (list_size (oneofl [ 3; 4; 4; 4; 5 ]) field)
  in
  frequency
    [ (1, oneofl (List.map fst keyed @ others));
      (2, interferer);
      ( 6,
        oneof
          (List.map (fun (head, keys) -> spec head keys) keyed
          @ List.map (fun head -> spec head all_keys) others) );
      (2, soup) ]

(* Modes whose every printed float lies on a decimal grid that %g
   prints exactly, and whose unprinted fields are defaults. *)
let printable_mode_gen =
  let open QCheck.Gen in
  let grid lo hi scale = map (fun n -> float_of_int n /. scale) (int_range lo hi) in
  let reliable =
    let* max_retries = int_range 0 6 in
    let* rto_n = int_range 1 100 in
    let* cap_n = int_range rto_n 400 in
    let* multiplier = grid 4 12 4.0 in
    let* jitter = grid 0 10 100.0 in
    return
      (`Reliable
        { Transport.max_retries; base_rto = float_of_int rto_n /. 100.0;
          multiplier; cap = float_of_int cap_n /. 100.0; jitter })
  in
  let scheduled =
    let* loss = grid 0 99 100.0 in
    let* confidence = grid 1 999 1000.0 in
    let* depth = int_range 1 4 in
    let* slot_len = opt (grid 1 200 1000.0) in
    let* retries = opt (int_range 0 5) in
    let* budget = opt (grid 1 50 10.0) in
    return
      (`Scheduled
        { Pte_sched.Synth.loss; confidence; depth; slot_len; retries; budget })
  in
  let adaptive =
    let* healthy = oneofl [ `Bare; `Reliable Transport.default_config ] in
    let* degrade_n = int_range 2 100 in
    let* recover_n = int_range 0 (degrade_n - 1) in
    let* min_dwell = grid 0 120 2.0 in
    let* budget = opt (grid 1 50 10.0) in
    let d = Transport.default_adaptive in
    return
      (`Adaptive
        { d with
          Transport.healthy;
          budget;
          policy =
            { d.Transport.policy with
              Pte_adapt.Policy.degrade_above = float_of_int degrade_n /. 100.0;
              recover_below = float_of_int recover_n /. 100.0;
              min_dwell } })
  in
  oneof [ return `Bare; reliable; scheduled; adaptive ]

let prop_spec_parsers =
  let finite_valid (c : Transport.config) =
    Result.is_ok (Transport.validate c)
    && List.for_all Float.is_finite
         Transport.[ c.base_rto; c.multiplier; c.cap; c.jitter ]
  in
  QCheck.Test.make
    ~name:"spec parsers never raise, round-trip pp_mode" ~count:1000
    (QCheck.make
       ~print:(fun (s, m) -> Fmt.str "%S / %a" s Transport.pp_mode m)
       (QCheck.Gen.pair spec_gen printable_mode_gen))
    (fun (spec, mode) ->
      (match Loss.of_string spec with
      | Ok (Loss.Interferer { period; burst; loss_during; loss_idle }) ->
          if
            not
              (List.for_all Float.is_finite
                 [ period; burst; loss_during; loss_idle ])
          then QCheck.Test.fail_reportf "accepted interferer %S" spec
      | Ok _ | Error _ -> ());
      (match Transport.mode_of_string spec with
      | Ok (`Reliable c)
      | Ok (`Adaptive { Transport.healthy = `Reliable c; _ }) ->
          if not (finite_valid c) then
            QCheck.Test.fail_reportf "accepted %a" Transport.pp_config c
      | Ok _ | Error _ -> ());
      Transport.mode_of_string (Fmt.str "%a" Transport.pp_mode mode)
      = Ok mode)

(* ---- satellite: the dedup-window forward-jump boundary ----

   The receiver's replay filter keeps a per-flow high-water mark plus a
   [dedup_window]-deep recent list; a seq arriving more than the window
   ahead of high — exactly what a >= dedup_window-frame loss burst
   produces, since dropped frames still consume link seqs — slides the
   window forward (high <- seq - window). The property: under any
   script of pass / drop / duplicate segments whose run lengths
   straddle the 64-frame boundary, every non-dropped send is delivered
   exactly once and every injected replay is suppressed — the slide
   never re-accepts a seq at or below the old high-water mark and
   never falsely rejects a genuinely new one. *)

let prop_dedup_forward_jump =
  let pp_seg (k, n) =
    Fmt.str "%s*%d"
      (match k with `Pass -> "pass" | `Drop -> "drop" | `Dup -> "dup")
      n
  in
  QCheck.Test.make
    ~name:"dedup window slide: exactly-once across >window loss bursts"
    ~count:80
    (QCheck.make
       ~print:(fun segs -> String.concat ";" (List.map pp_seg segs))
       QCheck.Gen.(
         list_size (int_range 1 8)
           (pair
              (oneofl [ `Pass; `Drop; `Dup ])
              (oneofl [ 1; 2; 63; 64; 65; 66; 80 ]))))
    (fun segs ->
      let script =
        List.concat_map (fun (k, n) -> List.init n (fun _ -> k)) segs
      in
      let star = mk_star () in
      let remaining = ref script in
      Link.set_injector (uplink star "r1")
        (Some
           (fun ~time:_ ~root:_ ->
             match !remaining with
             | [] -> Link.Pass
             | k :: rest ->
                 remaining := rest;
                 (match k with
                 | `Pass -> Link.Pass
                 | `Drop -> Link.Drop_frame
                 | `Dup -> Link.Duplicate_frame)));
      let t = create_direct ~mode:`Bare ~rng:(Rng.create 11) star in
      let router = Transport.router t in
      let delivered = ref 0 in
      List.iteri
        (fun i _ ->
          match
            router ~time:(0.05 *. float_of_int i) ~sender:"r1" ~root:"evt"
              ~receiver:"base"
          with
          | Pte_hybrid.Executor.Deliver _ -> incr delivered
          | Pte_hybrid.Executor.Lose -> ()
          | _ -> QCheck.Test.fail_report "unexpected routing decision")
        script;
      let count k = List.length (List.filter (fun x -> x = k) script) in
      let s = Transport.stats t in
      !delivered = count `Pass + count `Dup
      && s.Transport.delivered = !delivered
      && s.Transport.dups_suppressed = count `Dup
      && s.Transport.data_sends = List.length script)

(* ---- satellite: duplicate-heavy fault plan leaves a bare trial's
        Table-I metrics untouched (the star.ml double-delivery fix) ---- *)

let duplicate_everything =
  let dup entity direction =
    Plan.packet ~entity ~direction ~occurrence:Plan.Every Plan.Duplicate
  in
  { Plan.empty with
    Plan.packet_faults =
      [
        dup "ventilator" Plan.Up; dup "ventilator" Plan.Down;
        dup "laser" Plan.Up; dup "laser" Plan.Down;
      ];
    node_faults = [];
  }

let test_duplicate_storm_regression () =
  let base =
    {
      Emulation.default with
      horizon = 300.0;
      seed = 21;
      loss = Pte_net.Loss.Perfect;
    }
  in
  let clean = Trial.run base in
  let stormy = Trial.run { base with Emulation.faults = duplicate_everything } in
  Alcotest.(check bool) "replays were injected" true
    (stormy.Trial.dups_suppressed > 0);
  Alcotest.(check int) "no replay reaches an automaton twice: emissions"
    clean.Trial.emissions stormy.Trial.emissions;
  Alcotest.(check int) "failures" clean.Trial.failures stormy.Trial.failures;
  Alcotest.(check int) "still zero violations" 0 stormy.Trial.failures;
  Alcotest.(check int) "evtToStop" clean.Trial.evt_to_stop
    stormy.Trial.evt_to_stop;
  Alcotest.(check int) "requests" clean.Trial.requests stormy.Trial.requests

(* ---- emulation: reliable transport rechecks Theorem 1 at build ---- *)

let test_build_rejects_unsafe_budget () =
  let slow =
    { Transport.default_config with Transport.base_rto = 2.0; cap = 2.0 }
  in
  (* worst case ~6 s >> the 2 s case-study slack: build must refuse *)
  match
    Emulation.build { Emulation.default with transport = `Reliable slow }
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a retry budget past the c1-c7 slack must be rejected"

let test_build_rejects_unsafe_schedule () =
  (* 12 pinned blind copies over the 4-link round: wcl = 2 * (13*0.12 +
     0.03) = 3.18 s >> the 2 s budget — build must refuse, whether the
     policy pins its own budget or inherits the Theorem-1 one *)
  let greedy =
    { Pte_sched.Synth.default_policy with Pte_sched.Synth.retries = Some 12 }
  in
  (match
     Emulation.build { Emulation.default with transport = `Scheduled greedy }
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "an over-budget schedule must be rejected at build");
  (* and the admitted default policy round-trips its schedule out *)
  let built =
    Emulation.build
      { Emulation.default with
        transport = `Scheduled Pte_sched.Synth.default_policy }
  in
  match Transport.schedule built.Emulation.transport with
  | Some sched ->
      let budget =
        Pte_core.Constraints.max_delay_budget Pte_core.Params.case_study
      in
      Alcotest.(check bool) "admitted schedule fits the Theorem-1 budget" true
        (Pte_sched.Schedule.worst_case_latency sched <= budget)
  | None -> Alcotest.fail "scheduled build must expose its schedule"

(* ---- satellite: total downlink blackout drives the supervisor into
        degraded-safe-mode and the plant settles all-safe ---- *)

let blackout_after t0 =
  let drop entity =
    Plan.packet ~window:{ Plan.after = t0; before = 1e9 } ~entity
      ~direction:Plan.Down ~occurrence:Plan.Every Plan.Drop
  in
  { Plan.empty with Plan.packet_faults = [ drop "ventilator"; drop "laser" ];
    node_faults = [] }

let test_degraded_blackout () =
  let params = Pte_core.Params.case_study in
  let dcfg = { Pte_tracheotomy.Degraded.k = 3; hold = 200.0 } in
  let config =
    {
      Emulation.default with
      horizon = 150.0;
      e_ton = 1e9;
      e_toff = 1e9;
      loss = Pte_net.Loss.Perfect;
      seed = 31;
      transport = `Reliable Transport.default_config;
      degraded = Some dcfg;
      (* every supervisor->remote frame vanishes once the emission is
         under way: no grants, cancels or aborts get through *)
      faults = blackout_after 26.0;
    }
  in
  let built = Emulation.build config in
  let engine = built.Emulation.engine in
  let laser = built.Emulation.laser in
  let handle =
    match built.Emulation.degraded with
    | Some h -> h
    | None -> Alcotest.fail "degraded mode was configured"
  in
  Pte_sim.Scenario.one_shot engine
    ~at:(params.Pte_core.Params.t_fb_min +. 2.0)
    ~automaton:laser ~armed_in:"Fall-Back"
    ~root:(Pte_core.Events.stim_request ~initializer_:laser);
  (* phase 1: the emission starts, the blackout bites, the supervisor's
     unacknowledged downlinks trip the watchdog within a few feedback
     rounds *)
  Pte_sim.Engine.run engine ~until:70.0;
  Alcotest.(check bool) "entered degraded-safe-mode" true
    (handle.Pte_tracheotomy.Degraded.entries >= 1);
  let entered_at =
    match List.rev handle.Pte_tracheotomy.Degraded.entered_at with
    | first :: _ -> first
    | [] -> Alcotest.fail "entry recorded"
  in
  Alcotest.(check bool)
    (Fmt.str "entry at %.1f s is after the blackout" entered_at)
    true
    (entered_at >= 26.0 && entered_at <= 70.0);
  (* phase 2: within T^max_wait + T^max_LS1 of the entry, the lease
     self-reset must have walked every entity back to a safe location *)
  let settle = entered_at +. Pte_core.Params.risky_dwell_bound params +. 1.0 in
  Pte_sim.Engine.run engine ~until:settle;
  let assert_safe name =
    let automaton = Pte_hybrid.System.find_exn built.Emulation.system name in
    let loc =
      Pte_hybrid.Automaton.location_exn automaton
        (Pte_sim.Engine.location_of engine name)
    in
    Alcotest.(check bool)
      (Fmt.str "%s safe in %s" name loc.Pte_hybrid.Location.name)
      true
      (loc.Pte_hybrid.Location.kind = Pte_hybrid.Location.Safe)
  in
  assert_safe laser;
  assert_safe built.Emulation.ventilator;
  (* phase 3: while degraded (hold = 200 s outlives the horizon) a new
     request must not win a lease — and the whole run stays violation
     free *)
  Pte_sim.Scenario.one_shot engine ~at:(settle +. 5.0) ~automaton:laser
    ~armed_in:"Fall-Back"
    ~root:(Pte_core.Events.stim_request ~initializer_:laser);
  let trace = Emulation.run built in
  Alcotest.(check int) "exactly the pre-blackout emission" 1
    (Pte_sim.Metrics.entries trace ~automaton:laser ~location:"Risky Core");
  let report =
    Pte_core.Monitor.analyze_system trace built.Emulation.system
      built.Emulation.spec ~horizon:config.Emulation.horizon
  in
  Alcotest.(check int) "no PTE violation despite the blackout" 0
    (Pte_core.Monitor.episodes report)

(* ---- boundary: the hold expiry rides the executor's timer queue,
        so release happens at exactly entered_at + hold — not at the
        next step-quantized poll — and the re-armed watchdog needs k
        fresh losses to trip again ---- *)

let test_degraded_hold_expiry_on_timer () =
  (* a hold deliberately off the dt grid: a per-step poll could only
     release at the next step boundary after it *)
  let hold = 15.003 in
  let config =
    {
      Emulation.default with
      horizon = 150.0;
      (* steady surgeon traffic: requests keep crossing the intact
         uplink, so the supervisor keeps answering into the blackout
         and the counter keeps moving before and after the hold *)
      e_ton = 3.0;
      e_toff = 5.0;
      loss = Pte_net.Loss.Perfect;
      seed = 33;
      transport = `Reliable Transport.default_config;
      degraded = Some { Pte_tracheotomy.Degraded.k = 2; hold };
      faults = blackout_after 20.0;
    }
  in
  let built = Emulation.build config in
  let handle =
    match built.Emulation.degraded with
    | Some h -> h
    | None -> Alcotest.fail "degraded mode was configured"
  in
  let trace = Emulation.run built in
  Alcotest.(check bool)
    (Fmt.str "re-tripped after re-arm (%d entries)"
       handle.Pte_tracheotomy.Degraded.entries)
    true
    (handle.Pte_tracheotomy.Degraded.entries >= 2);
  let entries = List.rev handle.Pte_tracheotomy.Degraded.entered_at in
  let exits =
    List.filter_map
      (fun (e : Pte_hybrid.Trace.entry) ->
        match e.Pte_hybrid.Trace.event with
        | Pte_hybrid.Trace.Note "degraded-safe-mode: exit" ->
            Some e.Pte_hybrid.Trace.time
        | _ -> None)
      trace
  in
  (* every exit lands at the first executor step at-or-after the
     matching entry + hold — never before it (the timer's due is the
     exact off-grid release instant; the executor drains it at the
     next step boundary, within one dt) *)
  List.iteri
    (fun i exit_at ->
      let release = List.nth entries i +. hold in
      Alcotest.(check bool)
        (Fmt.str "exit %d not before release (%.4f vs %.4f)" i exit_at release)
        true
        (exit_at >= release -. 1e-9);
      Alcotest.(check bool)
        (Fmt.str "exit %d within one step of release" i)
        true
        (exit_at <= release +. config.Emulation.dt +. 1e-9))
    exits;
  Alcotest.(check bool) "at least one full enter/exit cycle" true
    (List.length exits >= 1);
  (* the re-armed watchdog needed k fresh losses: the second entry
     sits strictly after the first release *)
  match entries with
  | e0 :: e1 :: _ ->
      Alcotest.(check bool) "second entry after the first release" true
        (e1 > e0 +. hold)
  | _ -> Alcotest.fail "two entries recorded"

let test_reset_vs_inflight_exchange () =
  (* a reset landing while an exchange is still unresolved: the loss
     that becomes known afterwards counts from zero — the reset never
     retroactively forgives it, nor does the exchange resurrect the
     pre-reset count *)
  let star = mk_star ~loss:(Loss.Bernoulli 1.0) ~seed:9 () in
  let exec, t =
    ev_harness ~star ~mode:(`Reliable Transport.default_config) ~rng_seed:10
      ~sender:"base" ~receiver:"r1" ()
  in
  List.iter
    (fun at ->
      Exec.run exec ~until:at;
      ignore (Exec.inject exec ~receiver:"base" ~root:"kick"))
    [ 0.0; 1.0 ];
  Exec.run exec ~until:7.0;
  Alcotest.(check int) "two losses known" 2
    (Transport.consecutive_losses t ~sender:"base");
  ignore (Exec.inject exec ~receiver:"base" ~root:"kick");
  Exec.run exec ~until:8.0;
  Alcotest.(check int) "third exchange still in flight" 2
    (Transport.consecutive_losses t ~sender:"base");
  Transport.reset_consecutive_losses t ~sender:"base";
  Alcotest.(check int) "reset while in flight" 0
    (Transport.consecutive_losses t ~sender:"base");
  Exec.run exec ~until:16.0;
  Alcotest.(check int) "the straddling loss counts from zero, not three" 1
    (Transport.consecutive_losses t ~sender:"base");
  Alcotest.(check int) "all three exchanges resolved" 3
    (Transport.stats t).Transport.gave_up

(* ---- adaptive safe-switch: the two ways a quiescing switch commits ----

   One send from r1 at t = 0 on a perfect channel, under an adaptive
   transport that escalates on the first lost attempt (burst = 1,
   samples = 1, dwell = 0). The first retransmission timer is that
   loss sample, so the escalation is decided while the exchange is
   still in flight and the switch quiesces. It commits either when the
   exchange resolves (drain) or at the time-out, one healthy-mode bound
   after the decision — whichever comes first. *)

let quiesce_trial ~injector ~link =
  let star = mk_star () in
  Link.set_injector (link star "r1") (Some injector);
  let mode =
    match Transport.mode_of_string "adaptive:burst=1,dwell=0,samples=1" with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  let exec, t =
    ev_harness ~dt:0.001 ~star ~mode ~rng_seed:17 ~sender:"r1"
      ~receiver:"base" ()
  in
  (* each milestone with the escalations committed when it fired *)
  let milestones = ref [] in
  Transport.set_observer t (fun ev ->
      let up = (Transport.stats t).Transport.switches_up in
      milestones := (ev, up) :: !milestones);
  ignore (Exec.inject exec ~receiver:"r1" ~root:"kick");
  (* the first step at which [stat] moved *)
  let first_step stat ~until =
    let rec go () =
      if stat (Transport.stats t) > 0 then Some (Exec.time exec)
      else if Exec.time exec >= until then None
      else begin
        Exec.step exec;
        go ()
      end
    in
    go ()
  in
  let decided = first_step (fun s -> s.Transport.retransmissions) ~until:1.0 in
  let committed = first_step (fun s -> s.Transport.switches_up) ~until:5.0 in
  let get what = function
    | Some at -> at
    | None -> Alcotest.failf "no %s" what
  in
  let decided = get "retransmission" decided
  and committed = get "committed switch" committed in
  Exec.run exec ~until:10.0;
  (t, decided, committed, List.rev !milestones)

let healthy_bound star =
  Transport.worst_case_latency Transport.default_config
    ~frame_delay:(Star.worst_frame_delay star)

let test_quiesce_times_out () =
  (* every ACK lost: the exchange resolves only at its give-up timer,
     rto(0..3) + jitter after the send, well past the time-out *)
  let t, decided, committed, milestones =
    quiesce_trial ~link:downlink ~injector:(fun ~time:_ ~root ->
        if String.length root >= 4 && String.sub root 0 4 = "ack:" then
          Link.Drop_frame
        else Link.Pass)
  in
  let bound = healthy_bound (mk_star ()) in
  (* decided at the first retransmission timer (step 0.269 s), committed
     one healthy-mode bound (1.93 s) later *)
  Alcotest.(check (float 1e-6)) "decided" 0.269 decided;
  Alcotest.(check (float 1e-6)) "committed by time-out" 2.199 committed;
  Alcotest.(check (float 0.0011)) "time-out = the outgoing mode's bound" bound
    (committed -. decided);
  (match milestones with
  | [ (Transport.Exchange_delivered _, 0);
      (Transport.Exchange_gave_up { at; _ }, up) ] ->
      Alcotest.(check bool)
        (Fmt.str "gave up at %.3f s, after the commit" at)
        true (at > committed);
      Alcotest.(check int) "already committed when it gave up" 1 up
  | _ -> Alcotest.fail "expected one delivery, then one give-up");
  let s = Transport.stats t in
  Alcotest.(check int) "the late give-up does not commit again" 1
    s.Transport.switches_up;
  Alcotest.(check int) "no de-escalation" 0 s.Transport.switches_down

let test_quiesce_drains () =
  (* only the first data frame lost: the retransmission's ACK resolves
     the exchange and drains the quiesce at that instant *)
  let dropped = ref false in
  let t, decided, committed, milestones =
    quiesce_trial ~link:uplink ~injector:(fun ~time:_ ~root:_ ->
        if !dropped then Link.Pass
        else begin
          dropped := true;
          Link.Drop_frame
        end)
  in
  Alcotest.(check (float 1e-6)) "decided" 0.269 decided;
  (match milestones with
  | [ (Transport.Exchange_delivered _, 0);
      (Transport.Exchange_confirmed { at; _ }, up) ] ->
      Alcotest.(check (float 1e-6)) "ACK of the retransmission" 0.325584 at;
      Alcotest.(check int) "committed as the exchange resolved" 1 up;
      Alcotest.(check (float 1e-6)) "at the step that drained it" 0.326
        committed
  | _ -> Alcotest.fail "expected one delivery, then one confirmation");
  let s = Transport.stats t in
  (* a time-out that survived the drain would commit again at
     decided + bound, inside the 10 s run *)
  Alcotest.(check int) "the cancelled time-out never fires" 1
    s.Transport.switches_up;
  Alcotest.(check int) "no de-escalation" 0 s.Transport.switches_down

let suite =
  [
    ( "net.transport",
      [
        Alcotest.test_case "backoff schedule" `Quick test_rto_schedule;
        Alcotest.test_case "worst-case latency closed form" `Quick
          test_worst_case_latency;
        Alcotest.test_case "worst-case latency: one-step capped tail" `Quick
          test_worst_case_latency_tail;
        Alcotest.test_case "config validation" `Quick test_validate;
        Alcotest.test_case "create rejects ill-formed configs" `Quick
          test_create_validates;
        Alcotest.test_case "bare mode suppresses injected duplicates" `Quick
          test_bare_dup_suppression;
        Alcotest.test_case "reliable mode recovers a 50% channel" `Quick
          test_reliable_recovers_losses;
        Alcotest.test_case "consecutive-loss counter" `Quick
          test_consecutive_losses_and_reset;
        Alcotest.test_case "ACK killer: delivery without feedback" `Quick
          test_ack_killer;
        Alcotest.test_case "ACK revokes the pending retransmission" `Quick
          test_ack_cancels_pending_retransmission;
        Alcotest.test_case "burst channel evolves between attempts" `Quick
          test_burst_evolves_between_attempts;
        Alcotest.test_case "scheduled mode delivers within its bound" `Quick
          test_scheduled_within_bound;
        Alcotest.test_case "scheduled admission depth rejects overflow" `Quick
          test_scheduled_admission_depth;
        Alcotest.test_case "scheduled spec parsing" `Quick
          test_scheduled_spec_parsing;
        Alcotest.test_case "adaptive switch commits at the quiesce time-out"
          `Quick test_quiesce_times_out;
        Alcotest.test_case "adaptive switch commits when the exchange drains"
          `Quick test_quiesce_drains;
        QCheck_alcotest.to_alcotest prop_latency_within_bound;
        QCheck_alcotest.to_alcotest prop_bare_counter_invariants;
        QCheck_alcotest.to_alcotest prop_dedup_forward_jump;
        QCheck_alcotest.to_alcotest prop_spec_parsers;
      ] );
    ( "tracheotomy.transport",
      [
        Alcotest.test_case "duplicate storm leaves bare metrics unchanged"
          `Quick test_duplicate_storm_regression;
        Alcotest.test_case "build rejects unsafe retry budgets" `Quick
          test_build_rejects_unsafe_budget;
        Alcotest.test_case "build rejects unsafe schedules, admits defaults"
          `Quick test_build_rejects_unsafe_schedule;
        Alcotest.test_case "blackout -> degraded-safe-mode -> all-safe"
          `Slow test_degraded_blackout;
        Alcotest.test_case "hold expiry fires on the timer queue" `Slow
          test_degraded_hold_expiry_on_timer;
        Alcotest.test_case "counter reset vs an in-flight exchange" `Quick
          test_reset_vs_inflight_exchange;
      ] );
  ]
