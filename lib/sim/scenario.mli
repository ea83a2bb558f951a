(** Scenario combinators for the environment behaviours outside the
    automata formalism: the paper's Ton/Toff surgeon timers, wired
    sensors, and physical couplings.

    Each combinator resolves the names it is given into
    {!Pte_hybrid.Executor} refs when it registers, so it raises
    [Invalid_argument] then on an unknown automaton, an [armed_in]
    location the automaton lacks or an undeclared variable, and its
    process compares no name and, reading {!Engine.clock}, boxes no
    float as it runs. *)

val exponential_stimulus :
  Engine.t ->
  mean:float ->
  ?immediately:bool ->
  automaton:string ->
  armed_in:string ->
  root:string ->
  unit ->
  unit
(** Arm an exponential timer whenever [automaton] dwells in [armed_in];
    on firing (still there), inject [root]. Re-arms on every fresh entry
    — exactly the paper's emulated Ton/Toff timers, which are created on
    entry and destroyed on exit. [immediately] makes the very first
    timer fire at once. *)

val one_shot :
  Engine.t -> at:float -> automaton:string -> armed_in:string -> root:string ->
  unit
(** Inject [root] exactly once, the first time [automaton] dwells in
    [armed_in] at or after [at]. *)

val wired_sensor :
  Engine.t ->
  period:float ->
  from:string * string ->
  to_:string * string ->
  ?transform:(Pte_util.Rng.t -> float -> float) ->
  unit ->
  unit
(** Periodically copy a (possibly noisy, thresholded) reading from one
    automaton's data state into another's — e.g. the oximeter writing
    the supervisor's ApprovalCondition. Wired, hence lossless. *)

val coupling : Engine.t -> automaton:string -> var:string -> (Engine.t -> float) -> unit
(** Every step, write [f engine] into [automaton.var] — physical
    couplings such as "the patient is ventilated iff the ventilator
    dwells in a pumping location". *)
