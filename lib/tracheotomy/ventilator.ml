(** The ventilator: the stand-alone simple automaton A′vent of Fig. 2 and
    its elaboration into the Participant role (Section V).

    A′vent describes the ventilation pump: the cylinder of height
    [Hvent(t)] moves down at 0.1 m/s in "PumpOut" until it reaches the
    bottom, then up at 0.1 m/s in "PumpIn" until it reaches 0.3 m, and so
    on. Elaborating the Participant pattern automaton at "Fall-Back" with
    A′vent yields the PTE-compliant ventilator: it pumps while in
    Fall-Back and freezes (pauses ventilation) anywhere else — which is
    exactly the risky behaviour the leases bound. *)

open Pte_hybrid

let height_var = "Hvent"
let pump_out = "PumpOut"
let pump_in = "PumpIn"

let cylinder_top = 0.3
let pump_speed = 0.1

(** Fig. 2 verbatim: data state variable Hvent, locations PumpOut/PumpIn,
    invariant 0 <= Hvent <= 0.3, flows ±0.1 m/s, guards at the ends of
    the cylinder's travel, broadcast events on each stroke reversal. *)
let stand_alone =
  let invariant =
    [ Guard.atom height_var Guard.Ge 0.0;
      Guard.atom height_var Guard.Le cylinder_top ]
  in
  let location name rate =
    Location.make ~invariant ~flow:(Flow.Rates [ (height_var, rate) ]) name
  in
  Automaton.make ~name:"vent-standalone" ~vars:[ height_var ]
    ~locations:[ location pump_out (-.pump_speed); location pump_in pump_speed ]
    ~edges:
      [
        Edge.make
          ~guard:[ Guard.atom height_var Guard.Le 0.0 ]
          ~label:(Label.Send "evtVPumpIn") ~src:pump_out ~dst:pump_in ();
        Edge.make
          ~guard:[ Guard.atom height_var Guard.Ge cylinder_top ]
          ~label:(Label.Send "evtVPumpOut") ~src:pump_in ~dst:pump_out ();
      ]
    ~initial_location:pump_out ()

(** The PTE-compliant ventilator: Participant 1's pattern automaton
    elaborated at "Fall-Back" with A′vent. Its name is the entity name
    from [params] (ξ1, "ventilator" in the case study). *)
let participant ?(lease = true) (params : Pte_core.Params.t) =
  let pattern = Pte_core.Pattern.participant ~lease params ~index:1 in
  Elaboration.atomic_exn pattern "Fall-Back" stand_alone

(** The locations where the ventilator is actually ventilating the
    patient: the pump child automaton is live in [pump_out] and
    [pump_in]. Everywhere else the pump is frozen — the physical
    "pause". *)
let ventilating_locations = [ pump_out; pump_in ]

let is_ventilating location = List.exists (String.equal location) ventilating_locations
