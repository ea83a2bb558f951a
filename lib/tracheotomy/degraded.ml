(** Supervisor degraded-safe-mode.

    The lease pattern already guarantees safety when the downlink dies:
    every remote's lease self-resets and the entities drift back to
    their safe locations within T^max_wait + T^max_LS1. What the pattern
    does {e not} do is stop the supervisor from optimistically starting
    new sessions into a black hole. This monitor watches the transport's
    per-sender consecutive-loss counter for the supervisor: after [k]
    consecutive sends without delivery confirmation it declares the
    channel gone, forces the wired approval input to 0 — the grant guard
    ([approval >= 0.5]) can then never fire, so no lease is granted or
    renewed — and holds that state for [hold] seconds before re-arming.
    With the event-driven transport the counter moves at {e confirmation
    time} — an exchange counts as a feedback loss only when its retry
    budget actually expires (up to {!Pte_net.Transport.worst_case_latency}
    after the send), not at the send instant — so the watchdog trips
    when the losses become known to the sender, as a real supervisor
    would observe them.
    The system rides the lease self-reset down to all-safe; entering and
    leaving the mode is counted so trials can report it. *)

type config = {
  k : int;  (** consecutive feedback losses that trip the mode. *)
  hold : float;  (** seconds to stay degraded before re-arming. *)
}

let default params =
  { k = 3; hold = Pte_core.Params.risky_dwell_bound params }

type handle = {
  config : config;
  mutable entries : int;  (** times the mode was entered. *)
  mutable active : bool;
  mutable entered_at : float list;  (** entry times, newest first. *)
  mutable release_at : float option;  (** hold expiry while active. *)
}

(* ------------------------------------------------------------------ *)
(* Watchdog-parameter synthesis: classify sweep trips, pick (k, hold)  *)
(* ------------------------------------------------------------------ *)

type trip_class = Justified | False_trip

(* A trip is justified when it fires inside a scripted blackout window
   (plus [slack] for the detection lag — the k-th loss only becomes
   known one transport resolution after the blackout starts, and
   losses already in flight at its end still surface afterwards). *)
let classify_trip ~blackout_start ~blackout_end ~slack ~entered_at =
  if entered_at >= blackout_start && entered_at < blackout_end +. slack then
    Justified
  else False_trip

(** One cell of the loss × k × hold sweep: a candidate watchdog
    parameterization exercised against a scripted blackout at one
    background loss level, its trips classified. *)
type sweep_cell = {
  sweep_loss : float;  (** background (non-blackout) average loss. *)
  sweep_k : int;
  sweep_hold : float;
  false_trips : int;  (** trips outside the blackout window (+slack). *)
  justified_trips : int;  (** trips inside it. *)
  detection_delay : float;
      (** first justified trip minus blackout start ([nan] if none). *)
  failures : int;  (** PTE violation episodes in the cell's trial. *)
}

(** The synthesized choice: a (k, hold) that tripped inside the
    blackout at {e every} background loss level swept, with its
    aggregate quality. *)
type choice = {
  chosen_k : int;
  chosen_hold : float;
  total_false_trips : int;
  worst_detection_delay : float;  (** max over the loss axis. *)
}

(* Pick the (k, hold) pair that is justified everywhere, never breaks
   PTE, and stays within the false-trip budget; among those, fastest
   worst-case detection wins, then the shorter hold (less availability
   given away), then the smaller k. *)
let synthesize ?(max_false_trips = 0) cells =
  let module M = Map.Make (struct
    type t = int * float

    let compare = compare
  end) in
  let grouped =
    List.fold_left
      (fun acc c ->
        let key = (c.sweep_k, c.sweep_hold) in
        let false_trips, justified_min, delay_max, failures =
          match M.find_opt key acc with
          | None -> (c.false_trips, c.justified_trips, c.detection_delay, c.failures)
          | Some (f, j, d, v) ->
              ( f + c.false_trips,
                min j c.justified_trips,
                (* nan poisons max via the comparison below, as it must:
                   an undetected blackout disqualifies the pair *)
                (if Float.is_nan d || Float.is_nan c.detection_delay then nan
                 else Float.max d c.detection_delay),
                v + c.failures )
        in
        M.add key (false_trips, justified_min, delay_max, failures) acc)
      M.empty cells
  in
  let candidates =
    M.fold
      (fun (k, hold) (false_trips, justified_min, delay_max, failures) acc ->
        if
          failures = 0 && justified_min >= 1
          && (not (Float.is_nan delay_max))
          && false_trips <= max_false_trips
        then
          {
            chosen_k = k;
            chosen_hold = hold;
            total_false_trips = false_trips;
            worst_detection_delay = delay_max;
          }
          :: acc
        else acc)
      grouped []
  in
  let better a b =
    let c = Float.compare a.worst_detection_delay b.worst_detection_delay in
    if c <> 0 then c
    else
      let c = Float.compare a.chosen_hold b.chosen_hold in
      if c <> 0 then c else Int.compare a.chosen_k b.chosen_k
  in
  match List.sort better candidates with [] -> None | best :: _ -> Some best

let pp_trip_class ppf = function
  | Justified -> Fmt.string ppf "justified"
  | False_trip -> Fmt.string ppf "false-trip"

let pp_sweep_cell ppf c =
  Fmt.pf ppf
    "loss:%g k:%d hold:%gs false:%d justified:%d detect:%a failures:%d"
    c.sweep_loss c.sweep_k c.sweep_hold c.false_trips c.justified_trips
    (fun ppf d ->
      if Float.is_nan d then Fmt.string ppf "-" else Fmt.pf ppf "%.1fs" d)
    c.detection_delay c.failures

let pp_choice ppf c =
  Fmt.pf ppf "k=%d hold=%gs (false-trips:%d worst-detection:%.1fs)" c.chosen_k
    c.chosen_hold c.total_false_trips c.worst_detection_delay

(* Registered after the oximeter's process, so within one instant the
   forced 0 overwrites the oximeter's fresh approval sample. The entry
   check stays a per-step poll (the forced denial must overwrite the
   oximeter's approval sample every instant anyway), but the hold
   expiry lives on the executor's revocable timer queue: the exit
   fires at exactly [entered_at + hold], not at the next step-quantized
   poll past it. *)
let install engine ~supervisor config =
  let h =
    { config; entries = 0; active = false; entered_at = []; release_at = None }
  in
  (match Pte_sim.Engine.transport engine with
  | None -> ()
  | Some transport ->
      let exec = Pte_sim.Engine.executor engine in
      let approval =
        Pte_hybrid.Executor.var_ref exec supervisor Pte_core.Pattern.approval_var
      in
      let force_deny () = Pte_hybrid.Executor.set exec approval 0.0 in
      let clock = Pte_sim.Engine.clock engine in
      let arm_exit ~at =
        ignore
          (Pte_hybrid.Executor.schedule exec ~owner:supervisor ~at (fun _exec ->
               h.active <- false;
               h.release_at <- None;
               Pte_net.Transport.reset_consecutive_losses transport
                 ~sender:supervisor;
               Pte_sim.Engine.note engine "degraded-safe-mode: exit"))
      in
      Pte_sim.Engine.add_process engine ~name:"degraded-safe-mode"
        (fun engine ->
          if h.active then force_deny ()
          else if
            Pte_net.Transport.consecutive_losses transport ~sender:supervisor
            >= config.k
          then begin
            let time = clock.now in
            h.active <- true;
            h.entries <- h.entries + 1;
            h.entered_at <- time :: h.entered_at;
            h.release_at <- Some (time +. config.hold);
            arm_exit ~at:(time +. config.hold);
            Pte_sim.Engine.note engine "degraded-safe-mode: enter";
            force_deny ()
          end));
  h
