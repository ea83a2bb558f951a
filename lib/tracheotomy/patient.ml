(** The patient's blood-oxygen dynamics.

    The paper's emulation used a human subject breathing along with the
    ventilator display, wearing a Nonin 9843 oximeter. We substitute a
    first-order desaturation/recovery model: while ventilated, SpO2
    relaxes toward a healthy baseline; while ventilation is paused, it
    decays. Rates are set so a maximal with-lease pause (≈ 41 s risky +
    entering) grazes the 92 % threshold — reproducing the emulation's
    occasional supervisor aborts without making them dominant.

    The patient is a member automaton of the hybrid system but {e not} a
    node of the wireless star; its coupling variable [vent_ok] is driven
    by a physical coupling (the ventilator either inflates the lungs or
    does not), and its SpO2 is read by the wired oximeter — both are
    [pte_sim] couplings, not network messages. *)

open Pte_hybrid

let name = "patient"
let spo2_var = "spo2"
let vent_ok_var = "vent_ok"

let healthy_spo2 = 98.0
let recovery_rate = 0.25  (* 1/s, relaxation toward healthy baseline *)
let decay_rate = 0.16  (* %/s while ventilation is paused *)

let automaton =
  let flow =
    Flow.Ode
      {
        reads = [ spo2_var; vent_ok_var ];
        drives = [ spo2_var ];
        f =
          (fun _time x dx ->
            let spo2 = x.(0) in
            let ventilated = x.(1) >= 0.5 in
            dx.(0) <-
              (if ventilated then recovery_rate *. (healthy_spo2 -. spo2)
               else -.decay_rate));
      }
  in
  Automaton.make ~name ~vars:[ spo2_var; vent_ok_var ]
    ~locations:[ Location.make ~flow "Body" ]
    ~edges:[] ~initial_location:"Body"
    ~initial_values:[ (spo2_var, healthy_spo2); (vent_ok_var, 1.0) ]
    ()

(** Register the lung coupling: every simulation instant, [vent_ok]
    reflects whether the ventilator automaton dwells in one of
    {!Ventilator.ventilating_locations}, resolved when the coupling
    registers. *)
let couple_to_ventilator engine ~ventilator =
  let exec = Pte_sim.Engine.executor engine in
  let vent = Executor.automaton_ref exec ventilator in
  let ventilating =
    List.map (Executor.location_ref exec vent) Ventilator.ventilating_locations
  in
  let is_at = Executor.is_at exec in
  Pte_sim.Scenario.coupling engine ~automaton:name ~var:vent_ok_var
    (fun _engine -> if List.exists is_at ventilating then 1.0 else 0.0)
