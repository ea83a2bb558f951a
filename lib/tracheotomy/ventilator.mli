(** The ventilator: the stand-alone simple automaton A′vent of Fig. 2 and
    its elaboration into the Participant role (Section V). *)

val height_var : string
(** ["Hvent"], the cylinder height. *)

val pump_out : string
val pump_in : string

val cylinder_top : float
(** 0.3 m. *)

val pump_speed : float
(** 0.1 m/s. *)

val stand_alone : Pte_hybrid.Automaton.t
(** Fig. 2 verbatim; simple per Definition 3. *)

val participant : ?lease:bool -> Pte_core.Params.t -> Pte_hybrid.Automaton.t
(** The PTE-compliant ventilator: Participant 1's pattern automaton
    elaborated at "Fall-Back" with A′vent. It pumps in Fall-Back and
    freezes (pauses ventilation) anywhere else. *)

val ventilating_locations : string list
(** [PumpOut] and [PumpIn]: the pump is live there and frozen anywhere
    else. A caller that asks every step resolves them once
    ({!Pte_hybrid.Executor.location_ref}). *)

val is_ventilating : string -> bool
(** Whether a location is one of {!ventilating_locations}. *)
