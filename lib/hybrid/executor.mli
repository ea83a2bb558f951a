(** Fixed-step executor for hybrid systems.

    Time advances in steps of [config.dt] (explicit Euler); invariant
    boundaries are located by bisection and force an enabled spontaneous
    transition ({e forced} in the trace); {!Edge.Eager} edges fire as
    soon as their guard holds; event transport is delegated to a
    pluggable {!type-router} (reliable-instant by default; [pte_sim]
    plugs in the lossy wireless star). A bounded number of discrete
    changes may occur per instant.

    The hot path is built for systems of 1000+ automata: a binary
    min-heap event queue ordered by (due, insertion seq) with
    lazy-delete tombstones that are compacted away once they outnumber
    the live entries, flat int-indexed automaton states, an
    activity-set stabilization that re-chases only automata that
    changed since the last fixpoint, and a continuous sweep that skips
    {e sleeping} automata. An automaton in a constant-rate location
    sleeps from the chase that leaves it at its fixpoint until the
    first sweep at which an atom of its invariant or of an eager guard
    answers differently; that sweep is found ahead of time by replaying
    the Euler additions with {!Kernel.next_flip}, up to a fixed horizon
    where the automaton is looked at again. A location with no such
    atom (no invariant, no eager edge) never wakes it. It wakes early
    on a change of location, of rate ({!set_rate}), on {!restart}, or
    on a write that can move its flip. A skipped automaton's valuation
    is brought up to date, by replaying the same float additions in the
    same order, before any read or write of it. Each automaton's
    valuation is a
    [float array] over its declared variables, and each location is
    compiled into a {!Kernel} of slot arrays (guards, invariant,
    resets, and the flow: a [Rates] table, or an [Ode]'s read and
    driven slots with its scratch arrays) and a dispatch index the
    first time the automaton enters it; kernels belong to the executor,
    never to the shared {!Automaton.t}. Callers that act every step
    hold resolved refs ({!automaton_ref}, {!var_ref}) instead of names.
    The clock is an unboxed float ({!clock}) that is boxed at most once
    per instant, when a read escapes into a call. A sweep, with ODEs
    whose functions allocate nothing, and a stabilization round that
    fires nothing allocate nothing but that box, and a sweep that
    visits nothing not even that. All of it is
    bit-identical to the list-based {!Guard}, {!Reset} and {!Valuation}
    semantics and to the reference engine selected by
    [~queue:`Legacy_list]. *)

exception
  Time_block of { automaton : string; location : string; time : float }
(** An invariant boundary was reached with no enabled egress — the paper
    assumes time-block-free automata, so this surfaces modeling errors. *)

exception Zeno of { automaton : string; time : float }
(** More than [config.max_chain] discrete changes in one instant. *)

type route_decision =
  | Deliver of float  (** deliver after the given delay (seconds) *)
  | Deliver_many of float list
      (** deliver one copy per delay — duplicated frames (fault
          injection); an empty list is equivalent to [Lose] *)
  | Lose
  | Deferred
      (** the router has taken ownership of the send: it schedules the
          arrival (or records the loss) itself through {!schedule} /
          {!deliver_now} / {!lose_now}. Used by the event-driven ARQ
          transport, whose exchange outcome is not known at send time. *)

type router =
  time:float -> sender:string -> root:string -> receiver:string ->
  route_decision

val reliable_router : router

type config = {
  dt : float;
  max_chain : int;
  sample_vars : (string * Var.t) list;
      (** [(automaton, var)] recorded every [sample_period]; {!create}
          refuses an entry that names an unknown automaton or a variable
          the automaton does not declare. *)
  sample_period : float;
}

val default_config : config
(** 1 ms step, chain bound 64, no sampling. *)

type t

type queue_kind = [ `Heap | `Legacy_list ]
(** Engine selection. [`Heap] (the default) is the production engine:
    the O(log n)-push min-heap with O(1)-amortised cancel and tombstone
    compaction, activity-set stabilization and sleeping constant-rate
    automata. [`Legacy_list] is the reference: an O(n) sorted
    singly-linked list, full-scan stabilization and a full continuous
    sweep of every automaton every step. It is the measured baseline of
    the S1 throughput benchmark and the oracle of the differential
    tests. Both produce identical traces and bit-identical valuations. *)

val create : ?config:config -> ?queue:queue_kind ->
  ?trace_sink:(Trace.entry -> unit) -> System.t -> t
(** Validates the system and resolves [config.sample_vars] (raising
    [Invalid_argument] on an unknown name). [trace_sink] streams entries
    as they happen. *)

val set_router : t -> router -> unit

val time : t -> float
(** The current instant. The float is boxed once per instant, however
    often it is read. *)

type clock = private { mutable now : float }
(** The executor's clock. A float-only record stores its field
    unboxed, so a step moves it without allocating, and a caller that
    polls it every step, such as an engine process, reads [now]
    without the box {!time} returns. *)

val clock : t -> clock

val trace : t -> Trace.t

val events_processed : t -> int
(** Monotone count of discrete work done so far: message deliveries,
    timer firings and transitions. Cheap (no trace traversal) — the
    throughput benchmarks' events/sec numerator. *)

type stats = {
  sweeps : int;  (** continuous sweeps, one per {!step} *)
  awake_visits : int;
      (** automata advanced by a sweep, summed over sweeps (halted and
          sleeping ones are not) *)
  wakes : int;
      (** sleeping automata woken for the sweep of their next flip, or
          at the end of a search that found none within its horizon *)
  early_wakes : int;
      (** sleeping automata woken before that sweep, by a change of
          location (a delivery, {!restart}), a write that can move a
          flip, or {!set_rate} *)
  replays : int;  (** catch-ups that replayed skipped sweeps *)
  bisections : int;  (** invariant-boundary searches *)
  chases : int;  (** eager-edge chases run by stabilization *)
  kernels : int;  (** location kernels built: locations entered so far *)
  compactions : int;  (** tombstone compactions of the heap queue *)
  peak_queue : int;
      (** most live entries in the heap queue at once (the legacy list
          reports 0, as it does for compactions) *)
}
(** Work counters of one executor. They count what the engine did, not
    how long it took, so two runs of one input give equal stats. *)

val stats : t -> stats

(** {2 Revocable scheduling}

    Timers share the delivery queue (one timeline, ordered by (due,
    insertion)), so a scheduled arrival or retransmission timer can be
    revoked before it fires — the primitive behind the event-driven ARQ
    transport. *)

type token
(** Names one scheduled (not yet fired) queue entry. *)

val schedule : t -> ?owner:string -> at:float -> (t -> unit) -> token
(** Run the callback at absolute time [at] (clamped to now if in the
    past), interleaved with message deliveries in queue order. The
    callback may deliver events ({!deliver_now}), schedule or {!cancel}
    further timers, and mutate automata; any discrete cascade it starts
    is finished within the same instant.

    [owner] names the automaton on whose behalf the timer was armed
    (e.g. the sender of a retransmission): Zeno diagnostics raised
    while firing the callback blame it instead of the anonymous
    ["<timer>"], so shrink artifacts name the real culprit.

    Raises [Invalid_argument] if [at] is NaN or infinite — such a timer
    could never fire and would silently wedge its exchange. *)

val cancel : t -> token -> unit
(** Revoke a scheduled entry before it fires. Idempotent: unknown or
    already-fired tokens are ignored. *)

val deliver_now : t -> receiver:string -> root:string -> bool
(** Hand [root] to [receiver] at the current instant — the delivery half
    of a [Deferred] routing decision. Returns [true] if a triggered edge
    consumed it. *)

val lose_now : t -> receiver:string -> root:string -> unit
(** Record the loss of a send owned by a [Deferred] router, at the
    instant the transport gave up on it. *)

(** {2 Resolved references}

    A caller that reads or writes the same automaton every step — a
    coupling, a stimulus, a sensor — resolves the name once, when it
    registers, and then looks up no name: a ref is an automaton index,
    plus a slot for a variable. Refs belong to the executor that made
    them. *)

type automaton_ref

val automaton_ref : t -> string -> automaton_ref
(** Raises [Invalid_argument] on an unknown automaton. *)

val location : t -> automaton_ref -> string
(** The automaton's current location. *)

type location_ref

val location_ref : t -> automaton_ref -> string -> location_ref
(** Raises [Invalid_argument] when the automaton has no location of
    that name. *)

val is_at : t -> location_ref -> bool
(** Whether the automaton dwells in that location now: a physical
    compare, no name. *)

type var_ref

val var_ref : t -> string -> Var.t -> var_ref
(** Raises [Invalid_argument] on an unknown automaton or a variable the
    automaton does not declare. *)

val get : t -> var_ref -> float

val set : t -> var_ref -> float -> unit
(** Overwrite one variable, bypassing flows/resets — the hook for wired
    physical couplings (e.g. the oximeter writing the supervisor's
    ApprovalCondition). Use via [pte_sim]'s coupling API. *)

(** The by-name forms resolve a ref on every call, and raise as the ref
    constructors do. *)

val location_of : t -> string -> string
val value_of : t -> string -> Var.t -> float
val set_value : t -> string -> Var.t -> float -> unit

val valuation_of : t -> string -> Valuation.t
(** A snapshot over exactly the automaton's declared variables. *)

val dwell_time : t -> string -> float
(** Continuous dwell in the current location. *)

val note : t -> string -> unit
(** Append a free-form annotation to the trace. *)

(** {2 Node-fault hooks}

    Used by the fault-injection layer ([pte_faults]) to realize
    fail-stop crashes and clock drift — faults {e outside} the paper's
    message-loss-only model, injected to probe how the lease pattern
    degrades when Theorem 1's assumptions are broken. *)

val halt : t -> string -> unit
(** Crash an automaton: flows freeze, edges stop firing, incoming events
    are recorded as unconsumed and dropped, until {!restart}. *)

val restart : t -> string -> unit
(** Reboot an automaton into its initial location and valuation (records
    the location entry, so monitors see the reset). *)

val is_halted : t -> string -> bool

val set_rate : t -> string -> float -> unit
(** Local clock-drift factor: each global [dt] advances this automaton's
    continuous state by [rate * dt]. [rate < 1] = slow clocks (leases
    expire late, eating the c1-c7 margins); [rate > 1] = fast. Raises
    [Invalid_argument] on non-positive or non-finite rates. *)

val rate : t -> string -> float

val step : t -> unit
(** Advance by one [config.dt] step. *)

val run : t -> until:float -> unit

val inject : t -> receiver:string -> root:string -> bool
(** Deliver an environment stimulus now (the paper's emulated surgeon).
    Returns [true] if a triggered edge consumed it. *)
