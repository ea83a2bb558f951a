(** Packet-loss models.

    The paper's fault model is {e arbitrary} loss: the lease pattern must
    stay safe no matter which packets disappear. For the Table-I style
    trials we need concrete stochastic channels:

    - {!Bernoulli}: i.i.d. loss, the textbook baseline.
    - {!Gilbert_elliott}: two-state Markov channel producing bursty loss,
      the standard model for interference-driven loss on 802.15.4 links.
    - {!Interferer}: a periodic WiFi interference source with a duty
      cycle, matching the paper's setup of an 802.11g interferer
      broadcasting at 3 Mbps on a band overlapping the ZigBee motes' —
      packets sent during a burst are lost with high probability.
    - {!Corrupting}: wraps another model; "lost" packets are instead
      delivered with bit errors, to exercise the receiver-side CRC
      discard path.
    - {!Adversarial}: a scripted predicate deciding each packet's fate —
      used by failure-injection tests to realize the "arbitrary loss"
      quantifier (lose exactly the k-th protocol message, lose every
      abort, ...). *)

type outcome = Delivered | Lost_in_air | Corrupted

type kind =
  | Perfect
  | Bernoulli of float  (** loss probability per packet *)
  | Gilbert_elliott of {
      to_bad : float;  (** P(good -> bad) per packet *)
      to_good : float;  (** P(bad -> good) per packet *)
      loss_good : float;
      loss_bad : float;
    }
  | Interferer of {
      period : float;  (** seconds between burst starts *)
      burst : float;  (** burst duration in seconds *)
      loss_during : float;
      loss_idle : float;
    }
  | Corrupting of { inner : kind; corrupt_fraction : float }
      (** A [corrupt_fraction] of the inner model's losses arrive as
          corrupted frames rather than vanishing. *)
  | Adversarial of (int -> string -> bool)
      (** [f nth root] is [true] when the [nth] packet (0-based, per
          link) carrying [root] must be lost. *)
  | Trace_driven of bool array
      (** Replay a recorded per-packet outcome trace ([true] = lost),
          cycling when exhausted — e.g. a loss trace captured from a real
          interfered link. *)
  | Profile of (float * kind) list
      (** A time-varying channel: piecewise-constant segments
          [(start, kind)], sorted by start time. A packet sent at [t]
          sees the kind of the last segment with [start <= t]
          ([Perfect] before the first). Stateful inner kinds (the
          Gilbert–Elliott burst process) share one state across
          segments, so a profile stepping between wifi levels keeps a
          continuous burst process. *)

type t = {
  kind : kind;
  rng : Pte_util.Rng.t;
  mutable ge_bad : bool;  (* Gilbert-Elliott channel state *)
  mutable count : int;  (* packets seen, for Adversarial *)
}

let create ?(seed = 0x5EED) kind =
  { kind; rng = Pte_util.Rng.create seed; ge_bad = false; count = 0 }

let create_rng kind rng = { kind; rng; ge_bad = false; count = 0 }

let rec decide_kind t kind ~time ~root =
  match kind with
  | Perfect -> Delivered
  | Bernoulli p ->
      if Pte_util.Rng.bernoulli t.rng p then Lost_in_air else Delivered
  | Gilbert_elliott { to_bad; to_good; loss_good; loss_bad } ->
      (* advance the channel state, then draw the loss for this packet *)
      (if t.ge_bad then begin
         if Pte_util.Rng.bernoulli t.rng to_good then t.ge_bad <- false
       end
       else if Pte_util.Rng.bernoulli t.rng to_bad then t.ge_bad <- true);
      let p = if t.ge_bad then loss_bad else loss_good in
      if Pte_util.Rng.bernoulli t.rng p then Lost_in_air else Delivered
  | Interferer { period; burst; loss_during; loss_idle } ->
      let phase = Float.rem time period in
      let p = if phase < burst then loss_during else loss_idle in
      if Pte_util.Rng.bernoulli t.rng p then Lost_in_air else Delivered
  | Corrupting { inner; corrupt_fraction } -> (
      match decide_kind t inner ~time ~root with
      | Lost_in_air when Pte_util.Rng.bernoulli t.rng corrupt_fraction ->
          Corrupted
      | outcome -> outcome)
  | Adversarial f -> if f t.count root then Lost_in_air else Delivered
  | Trace_driven outcomes ->
      if Array.length outcomes = 0 then Delivered
      else if outcomes.(t.count mod Array.length outcomes) then Lost_in_air
      else Delivered
  | Profile segments ->
      let active =
        List.fold_left
          (fun acc (start, k) -> if start <= time then Some k else acc)
          None segments
      in
      (match active with
      | None -> Delivered
      | Some k -> decide_kind t k ~time ~root)

let decide t ~time ~root =
  let outcome = decide_kind t t.kind ~time ~root in
  t.count <- t.count + 1;
  outcome

(** Long-run loss probability of a model (exact where closed-form,
    ignoring Adversarial). Used by reports and tests. *)
let rec nominal_loss_rate = function
  | Perfect -> 0.0
  | Bernoulli p -> p
  | Gilbert_elliott { to_bad; to_good; loss_good; loss_bad } ->
      let p_bad = to_bad /. (to_bad +. to_good) in
      (p_bad *. loss_bad) +. ((1.0 -. p_bad) *. loss_good)
  | Interferer { period; burst; loss_during; loss_idle } ->
      let duty = Float.min 1.0 (burst /. period) in
      (duty *. loss_during) +. ((1.0 -. duty) *. loss_idle)
  | Corrupting { inner; _ } -> nominal_loss_rate inner
  | Adversarial _ -> nan
  | Profile [] -> 0.0
  | Profile segments ->
      (* unweighted mean over segments — indicative only, the true
         long-run rate depends on how long each segment runs *)
      List.fold_left (fun acc (_, k) -> acc +. nominal_loss_rate k) 0.0
        segments
      /. Float.of_int (List.length segments)
  | Trace_driven outcomes ->
      if Array.length outcomes = 0 then 0.0
      else
        Float.of_int
          (Array.fold_left (fun n l -> if l then n + 1 else n) 0 outcomes)
        /. Float.of_int (Array.length outcomes)

(** The channel used for Table-I style trials: constant WiFi interference
    as a bursty Gilbert–Elliott process with the given average loss
    rate. Bursts average ~5 packets; the good state still loses a small
    residue. *)

module Log = (val Logs.src_log (Logs.Src.create "pte.net.loss") : Logs.LOG)

(* The Gilbert–Elliott parameterization below cannot realize every
   average: the good state already loses 2% (so averages below
   loss_good are unreachable) and the stationary bad-state probability
   must stay < 1 (so averages at or above loss_bad are unreachable).
   The representable band, with a little headroom at the top so burst
   lengths stay finite: *)
let wifi_min_loss = 0.021
let wifi_max_loss = 0.88

let wifi_effective_loss ~average_loss =
  Float.max wifi_min_loss (Float.min wifi_max_loss average_loss)

let wifi_interference ~average_loss =
  let loss_bad = 0.9 and loss_good = 0.02 in
  let effective = wifi_effective_loss ~average_loss in
  if effective <> average_loss then
    Log.warn (fun m ->
        m
          "wifi_interference: average_loss %g is outside the representable \
           band [%g, %g]; clamped to %g"
          average_loss wifi_min_loss wifi_max_loss effective);
  (* choose stationary bad-state probability to hit the average *)
  let p_bad = (effective -. loss_good) /. (loss_bad -. loss_good) in
  let to_good = 0.2 (* mean burst length 5 packets *) in
  let to_bad = to_good *. p_bad /. (1.0 -. p_bad) in
  Gilbert_elliott { to_bad; to_good; loss_good; loss_bad }

let rec pp_kind ppf = function
  | Perfect -> Fmt.string ppf "perfect"
  | Bernoulli p -> Fmt.pf ppf "bernoulli(%.2f)" p
  | Gilbert_elliott g ->
      Fmt.pf ppf "gilbert-elliott(bad:%.3f good:%.3f)" g.to_bad g.to_good
  | Interferer i -> Fmt.pf ppf "interferer(%.1fs/%.1fs)" i.burst i.period
  | Corrupting c -> Fmt.pf ppf "corrupting(%.2f)" c.corrupt_fraction
  | Adversarial _ -> Fmt.string ppf "adversarial"
  | Trace_driven outcomes -> Fmt.pf ppf "trace(%d)" (Array.length outcomes)
  | Profile segments ->
      Fmt.pf ppf "profile(%a)"
        (Fmt.list ~sep:(Fmt.any ";") (fun ppf (start, k) ->
             Fmt.pf ppf "%g:%a" start pp_kind k))
        segments

(* ------------------------------------------------------------------ *)
(* CLI spec parsing                                                    *)
(* ------------------------------------------------------------------ *)

let of_string s =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let floats spec = List.map float_of_string_opt (String.split_on_char ',' spec) in
  let head, spec =
    match String.index_opt s ':' with
    | None -> (s, None)
    | Some i ->
        (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))
  in
  match (head, spec) with
  | "perfect", None -> Ok Perfect
  | "wifi", Some spec -> (
      match float_of_string_opt spec with
      | Some avg when avg <= 0.0 -> Ok Perfect
      | Some avg when not (Float.is_nan avg) ->
          Ok (wifi_interference ~average_loss:avg)
      | Some _ | None -> fail "loss-model: wifi expects a number, got %S" spec)
  | "bernoulli", Some spec -> (
      match float_of_string_opt spec with
      | Some p when p >= 0.0 && p <= 1.0 -> Ok (Bernoulli p)
      | Some _ -> fail "loss-model: bernoulli probability must be in [0, 1]"
      | None -> fail "loss-model: bernoulli expects a number, got %S" spec)
  | "ge", Some spec -> (
      match floats spec with
      | [ Some to_bad; Some to_good; Some loss_good; Some loss_bad ] ->
          if
            List.for_all
              (fun p -> p >= 0.0 && p <= 1.0)
              [ to_bad; to_good; loss_good; loss_bad ]
          then Ok (Gilbert_elliott { to_bad; to_good; loss_good; loss_bad })
          else fail "loss-model: ge probabilities must be in [0, 1]"
      | _ ->
          fail
            "loss-model: ge expects to_bad,to_good,loss_good,loss_bad, got %S"
            spec)
  | "interferer", Some spec -> (
      match floats spec with
      | [ Some period; Some burst; Some loss_during; Some loss_idle ] ->
          if not (period > 0.0) then
            fail "loss-model: interferer period must be > 0"
          else if burst < 0.0 then
            fail "loss-model: interferer burst must be >= 0"
          else if not (Float.is_finite period && Float.is_finite burst) then
            fail "loss-model: interferer period and burst must be finite"
          else if
            List.for_all (fun p -> p >= 0.0 && p <= 1.0) [ loss_during; loss_idle ]
          then Ok (Interferer { period; burst; loss_during; loss_idle })
          else fail "loss-model: interferer loss rates must be in [0, 1]"
      | _ ->
          fail
            "loss-model: interferer expects \
             period,burst,loss_during,loss_idle, got %S"
            spec)
  | _ ->
      fail
        "unknown loss model %S (expected perfect, wifi:<avg>, \
         bernoulli:<p>, ge:to_bad,to_good,loss_good,loss_bad or \
         interferer:period,burst,loss_during,loss_idle)"
        s

(* The one `--loss-model` converter every CLI shares. *)
let conv =
  Cmdliner.Arg.conv ~docv:"MODEL"
    ( (fun s ->
        match of_string s with
        | Ok k -> Ok k
        | Error msg -> Error (`Msg msg)),
      pp_kind )
