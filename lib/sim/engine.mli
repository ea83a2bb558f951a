(** Simulation engine: a hybrid-system executor coupled to the wireless
    star network and to periodic environment processes — the Fig. 7(b)
    emulation testbed in software.

    {!run} polls the processes from an array, with their due times in an
    unboxed [float array], so the poll allocates nothing. A process that
    acts every step should resolve the automata and variables it touches
    into {!Pte_hybrid.Executor} refs when it registers, as
    {!Scenario}'s combinators do; the by-name {!location_of},
    {!value_of} and {!set_value} look the name up on every call. *)

type t

val create :
  ?config:Pte_hybrid.Executor.config ->
  ?net:Pte_net.Star.t ->
  ?transport:Pte_net.Transport.mode ->
  ?trace_sink:(Pte_hybrid.Trace.entry -> unit) ->
  seed:int ->
  Pte_hybrid.System.t ->
  t
(** With [?net], wireless events route through the star's links via a
    {!Pte_net.Transport} ([`Bare] by default: single-shot sends, exactly
    the legacy {!Pte_net.Star.router} behavior; [`Reliable _] adds
    ACK/retransmission); automata that are not star nodes communicate
    as wired. *)

val executor : t -> Pte_hybrid.Executor.t

val clock : t -> Pte_hybrid.Executor.clock
(** The executor's clock ({!Pte_hybrid.Executor.clock}): [(clock t).now]
    is the current instant, read without allocating. *)

val network : t -> Pte_net.Star.t option

(** The transport instance wrapping [?net] ([None] without a network) —
    exposes delivery stats and per-sender consecutive-loss counters. *)
val transport : t -> Pte_net.Transport.t option
val time : t -> float
val rng : t -> Pte_util.Rng.t

val fork_rng : t -> Pte_util.Rng.t
(** An independent random stream for one model component (deterministic
    in the engine seed). *)

val add_process : t -> ?period:float -> name:string -> (t -> unit) -> unit
(** Register a periodic environment process; [period] defaults to every
    executor step. Processes run in registration order; one registered
    by a running process first runs at the next poll. A process that
    needs the instant reads [(clock t).now], which allocates nothing. *)

val inject : t -> receiver:string -> root:string -> unit
(** Deliver an environment stimulus now (lossless, local). *)

val location_of : t -> string -> string
val value_of : t -> string -> string -> float
val set_value : t -> string -> string -> float -> unit
val note : t -> string -> unit

val halt : t -> string -> unit
(** Crash an automaton until {!restart} (see {!Pte_hybrid.Executor.halt}). *)

val restart : t -> string -> unit
(** Reboot a (crashed) automaton into its initial location. *)

val is_halted : t -> string -> bool

val set_rate : t -> string -> float -> unit
(** Per-automaton clock-drift factor (see {!Pte_hybrid.Executor.set_rate}). *)

val run : t -> until:float -> unit
val trace : t -> Pte_hybrid.Trace.t
