(** The fault-plan DSL: deterministic, serializable scripts of targeted
    packet and node faults.

    A plan names exactly {e which} frames to tamper with (by link,
    event root, nth occurrence, time window) and which node faults to
    schedule (fail-stop crash with reboot, clock drift). Together with a
    trial seed, a plan replays byte-identically — the unit of evidence
    for the robustness campaigns, and the artifact the counterexample
    shrinker emits. *)

type direction = Up | Down

(** Which link of the star a packet fault sits on: the [entity]'s uplink
    (remote → supervisor) or downlink (supervisor → remote). *)
type site = { entity : string; direction : direction }

type occurrence =
  | Nth of int  (** the nth matching frame on that link, 0-based *)
  | Every

(** Restrict a fault to frames sent in [\[after, before)]. *)
type window = { after : float; before : float }

type packet_action =
  | Drop
  | Corrupt  (** delivered with bit errors; the CRC discard path eats it *)
  | Delay of float  (** extra delivery delay, seconds *)
  | Duplicate

type packet_fault = {
  site : site;
  root : string option;  (** [None] matches every event root *)
  occurrence : occurrence;
  window : window option;
  action : packet_action;
}

type node_fault =
  | Crash of { entity : string; at : float; blackout : float }
  | Clock_drift of { entity : string; factor : float }

(** One step of a piecewise-constant loss profile: from [at] on, the
    channel runs at average loss rate [loss] — 0 is a perfect channel,
    anything else the Table-I Gilbert–Elliott channel
    ({!Pte_net.Loss.wifi_interference}) at that average. *)
type loss_step = { at : float; loss : float }

type t = {
  packet_faults : packet_fault list;
  node_faults : node_fault list;
  loss_profile : loss_step list;
      (** time-varying channel steps, sorted by [at]. The empty list
          keeps the trial's configured static loss model; a non-empty
          profile overlays it ({!Pte_net.Loss.Profile}), the configured
          model covering the span before the first step. *)
}

val empty : t
val is_empty : t -> bool

(** {2 Constructors} *)

val packet :
  ?root:string ->
  ?window:window ->
  entity:string ->
  direction:direction ->
  occurrence:occurrence ->
  packet_action ->
  packet_fault

val drop_nth :
  entity:string -> direction:direction -> root:string -> int -> packet_fault

val drop_every :
  entity:string -> direction:direction -> root:string -> packet_fault

val crash : entity:string -> at:float -> blackout:float -> node_fault
val clock_drift : entity:string -> factor:float -> node_fault
val loss_step : at:float -> loss:float -> loss_step

(** {2 JSON round-trip}

    [of_string (to_string p)] reconstructs [p] exactly (structural
    equality), so plans can be checked in, diffed, and replayed. *)

val to_json : t -> Pte_util.Json.t

val of_json : Pte_util.Json.t -> (t, string) result
(** Refuses, besides malformed JSON: a top-level key other than
    [packet], [node] and [loss_profile]; a non-finite number; a crash
    [at] < 0 or [blackout] <= 0; a drift [factor] <= 0; a [delay] < 0;
    a loss step off the timeline or outside [\[0, 1\]]. *)

val to_string : t -> string
val of_string : string -> (t, string) result
val save : t -> string -> unit
val load : string -> (t, string) result

val check_entities :
  t -> links:string list -> automata:string list -> (unit, string) result
(** Where a plan meets a system: [Error] when a packet fault sits on an
    entity without a link in [links], or a node fault targets an entity
    not in [automata]. *)

val pp : t Fmt.t
val pp_packet_fault : packet_fault Fmt.t
val pp_node_fault : node_fault Fmt.t
val pp_loss_step : loss_step Fmt.t
